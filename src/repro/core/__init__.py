"""DASC core — the paper's contribution.

The pipeline (Section 3.1):

1. :mod:`repro.core.signatures` — M-bit LSH signatures per point,
2. :mod:`repro.core.buckets` — group identical signatures, merge buckets
   whose signatures differ in at most ``M - P`` bits (Eq. 6),
3. :mod:`repro.core.approx_kernel` — per-bucket Gram blocks (Eq. 1),
4. :class:`repro.core.dasc.DASC` — per-bucket spectral clustering on top.

:mod:`repro.core.config` holds the knobs and the paper's defaults
(``M = floor(log2 N / 2) - 1``, ``P = M - 1``); :mod:`repro.core.allocation`
decides how many clusters each bucket receives.
"""

from repro.core.config import DASCConfig, default_n_bits, default_n_clusters
from repro.core.signatures import compute_signatures, make_hasher
from repro.core.buckets import Buckets, group_by_signature, merge_buckets
from repro.core.approx_kernel import ApproximateKernel, build_approximate_kernel
from repro.core.allocation import allocate_clusters, choose_k_eigengap
from repro.core.refine import merge_clusters_to_k
from repro.core.streaming import StreamingDASC
from repro.core.dasc import DASC

__all__ = [
    "DASCConfig",
    "default_n_bits",
    "default_n_clusters",
    "compute_signatures",
    "make_hasher",
    "Buckets",
    "group_by_signature",
    "merge_buckets",
    "ApproximateKernel",
    "build_approximate_kernel",
    "allocate_clusters",
    "choose_k_eigengap",
    "merge_clusters_to_k",
    "StreamingDASC",
    "DASC",
]
