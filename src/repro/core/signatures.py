"""Signature generation — step 1 of DASC.

Fits the paper's axis-parallel hasher (:class:`repro.lsh.axis.AxisParallelHasher`,
Eqs. 4-5) with the configured dimension and threshold policies and produces
one packed ``uint64`` signature per point.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DASCConfig
from repro.lsh.axis import AxisParallelHasher
from repro.utils.validation import check_2d

__all__ = ["make_hasher", "compute_signatures"]


def make_hasher(config: DASCConfig, n_bits: int) -> AxisParallelHasher:
    """An unfitted M-bit :class:`AxisParallelHasher` configured by ``config``."""
    return AxisParallelHasher(
        n_bits,
        dimension_policy=config.dimension_policy,
        threshold_policy=config.threshold_policy,
        seed=config.seed,
    )


def compute_signatures(X, config: DASCConfig) -> tuple[np.ndarray, int, AxisParallelHasher]:
    """Fit the hasher on ``X`` and return packed signatures.

    Returns
    -------
    (signatures, n_bits, hasher) — ``signatures`` is (n,) uint64, ``n_bits``
    the resolved M, ``hasher`` the fitted hash object (reusable on new data).
    """
    X = check_2d(X)
    n_bits = config.resolve_n_bits(X.shape[0])
    hasher = make_hasher(config, n_bits)
    signatures = hasher.fit_hash(X)
    return signatures, n_bits, hasher
