"""Distributed machine-learning primitives on the MapReduce engine.

The paper leans on Apache Mahout for the distributed pieces it does not
build itself (K-Means, Singular Value Decomposition), and DASC's final
step "use[s] the standard MapReduce
implementation of spectral clustering available in the Mahout library".
This package is that substrate, built on :mod:`repro.mapreduce`:

* :mod:`repro.mr_ml.kmeans` — iterative MapReduce K-Means (Mahout's
  canonical job: map = assign to nearest centroid, combine = partial sums,
  reduce = recompute centroids),
* :mod:`repro.mr_ml.linalg` — distributed matrix-vector products and Gram
  accumulation over row blocks,
* :mod:`repro.mr_ml.spectral` — distributed spectral clustering: Laplacian
  normalisation, Lanczos iteration driven by MapReduce mat-vecs, and the
  final distributed K-Means — the Mahout role in the paper's pipeline.
"""

from repro.mr_ml.kmeans import MRKMeans
from repro.mr_ml.linalg import mr_matvec, mr_gram
from repro.mr_ml.spectral import MRSpectralClustering
from repro.mr_ml.svd import mr_svd

__all__ = [
    "MRKMeans",
    "mr_matvec",
    "mr_gram",
    "MRSpectralClustering",
    "mr_svd",
]
