"""Spectral clustering substrate (the NJW algorithm and its numerics).

Implements everything the DASC pipeline's fourth step needs, from scratch:
the normalized graph Laplacian (Eq. 2), restarted Lanczos tridiagonalization
+ an implicit-shift QL eigensolver for symmetric tridiagonal matrices (the
reduction chain the paper describes in Section 3.2), the NJW row-normalized
spectral embedding, K-means with k-means++ seeding, and the per-bucket task
that chains them (:func:`solve_bucket`, which builds the bucket's Gram block
and runs :func:`cluster_bucket` on it, seeded by :func:`bucket_seed`).
"""

from repro.spectral.laplacian import (
    NormalizedLaplacianOperator,
    degree_vector,
    inv_sqrt_degrees,
    normalized_laplacian,
)
from repro.spectral.tridiagonal import tridiagonal_eigh
from repro.spectral.eigen import top_eigenvectors
from repro.spectral.embedding import spectral_embedding, row_normalize
from repro.spectral.kmeans import KMeans, kmeans_plus_plus_init
from repro.spectral.cluster import SpectralClustering
from repro.spectral.bucket import (
    BucketClustering,
    bucket_seed,
    cluster_bucket,
    needs_eigensolve,
    solve_bucket,
)

__all__ = [
    "degree_vector",
    "inv_sqrt_degrees",
    "normalized_laplacian",
    "NormalizedLaplacianOperator",
    "tridiagonal_eigh",
    "top_eigenvectors",
    "spectral_embedding",
    "row_normalize",
    "KMeans",
    "kmeans_plus_plus_init",
    "SpectralClustering",
    "BucketClustering",
    "bucket_seed",
    "cluster_bucket",
    "needs_eigensolve",
    "solve_bucket",
]
