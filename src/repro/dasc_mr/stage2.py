"""Stage 2: Algorithm 2 + spectral clustering, one bucket per reducer.

Algorithm 2's reducer receives ``(signature, list of indices)`` and computes
the bucket's sub-similarity matrix with ``simFunc`` (the Gaussian kernel,
Eq. 1), writing 0 on the diagonal. The paper then hands the matrices to
Mahout's spectral clustering; here the same reducer carries on with the NJW
steps (Eq.-2 Laplacian, top-K_i eigenvectors, row-normalized K-means) in
one call to :func:`repro.spectral.bucket.solve_bucket`, the per-bucket task
``DASC.fit`` runs too, so a single reduce call turns one bucket into final
labels — which is exactly the per-bucket unit of parallelism the elasticity
experiment exploits.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.functions import GaussianKernel
from repro.mapreduce.types import JobSpec
from repro.spectral.bucket import bucket_seed, solve_bucket

__all__ = [
    "similarity_reducer",
    "make_clustering_job",
    "identity_mapper",
    "bucket_partitioner",
    "SpectralReduceCost",
]


# Module-level (not nested) so stage-2 JobSpecs pickle cleanly and the
# engine may run their tasks in worker processes.


def identity_mapper(key, value, ctx):
    """Pass records through unchanged (stage 2 consumes stage 1's output)."""
    yield (key, value)


def bucket_partitioner(key, n: int) -> int:
    """Bucket ids are small ints; partition them round-robin."""
    return int(key) % n


class SpectralReduceCost:
    """The paper's per-bucket complexity ``2 N_i^2 + 2 K_i N_i`` (Eq. 3).

    A picklable callable closed over the driver's allocation table, which is
    what makes the simulated makespans follow the paper's analysis.
    """

    __slots__ = ("allocation",)

    def __init__(self, allocation: dict):
        self.allocation = allocation

    def __call__(self, bucket_id, members) -> float:
        n_i = len(members)
        k_i = self.allocation[bucket_id][0]
        return float(2 * n_i * n_i + 2 * k_i * n_i)


def similarity_reducer(bucket_id, members, ctx):
    """One bucket -> sub-similarity matrix -> local spectral labels.

    ``members`` is a list of ``(index, vector)`` pairs. ``ctx.job.params``
    carries ``sigma``, ``zero_diagonal``, ``allocation`` (bucket_id ->
    (K_i, label_offset)), ``kmeans_n_init``, ``eig_backend`` and ``seed``.
    Emits ``(index, global_label)`` pairs.
    """
    params = ctx.job.params
    k_i, offset = params["allocation"][bucket_id]
    indices = [m[0] for m in members]
    X = np.asarray([np.asarray(m[1], dtype=np.float64) for m in members])
    n_i = X.shape[0]
    ctx.increment("dasc", "buckets_reduced")
    ctx.increment("dasc", "similarity_entries", n_i * n_i)

    # Algorithm 2's Gram block (zero diagonal by default), then Eq. 2 + NJW
    # embedding + K-means on the embedding rows: one per-bucket task.
    local = solve_bucket(
        X, GaussianKernel(params["sigma"]), k_i, bucket_seed(params["seed"], bucket_id),
        zero_diagonal=params["zero_diagonal"], eig_backend=params["eig_backend"],
        kmeans_n_init=params["kmeans_n_init"], validate=bool(params.get("validate", False)),
        bucket_id=int(bucket_id),
    ).labels

    for idx, lab in zip(indices, local):
        yield (idx, offset + int(lab))


def make_clustering_job(
    *,
    sigma: float,
    allocation: dict,
    n_reducers: int,
    zero_diagonal: bool = True,
    eig_backend: str = "auto",
    kmeans_n_init: int = 4,
    seed: int | None = 0,
    validate: bool = False,
    name: str = "dasc-stage2-spectral",
) -> JobSpec:
    """Build the stage-2 JobSpec.

    ``allocation`` maps bucket id -> ``(K_i, global label offset)``; the
    driver computes it from the bucket sizes (Section 4.1's K_i split).
    The reduce cost model is the paper's per-bucket complexity,
    ``2 N_i^2 + 2 K_i N_i`` (Eq. 3's bucket terms), which is what makes the
    simulated makespans follow the paper's analysis.
    """
    if n_reducers < 1:
        raise ValueError(f"n_reducers must be >= 1, got {n_reducers}")
    return JobSpec(
        name=name,
        mapper=identity_mapper,
        reducer=similarity_reducer,
        n_reducers=n_reducers,
        partitioner=bucket_partitioner,
        reduce_cost=SpectralReduceCost(allocation),
        params={
            "sigma": float(sigma),
            "zero_diagonal": bool(zero_diagonal),
            "allocation": allocation,
            "eig_backend": eig_backend,
            "kmeans_n_init": int(kmeans_n_init),
            "seed": seed,
            "validate": bool(validate),
        },
    )
