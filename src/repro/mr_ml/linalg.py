"""Distributed dense linear algebra on MapReduce.

The primitives Mahout's distributed spectral/SVD jobs are built from:

* :func:`mr_matvec` — ``y = A @ x`` with ``A`` stored as row blocks on the
  (simulated) filesystem; each map task multiplies its block by the
  broadcast vector,
* :func:`mr_gram` — ``A.T @ A`` accumulated block-wise (the workhorse of
  distributed SVD/PCA).

Rows are keyed by their global index so results reassemble exactly.
"""

from __future__ import annotations

import numpy as np

from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.types import JobSpec

__all__ = ["row_block_splits", "mr_matvec", "mr_gram"]


def row_block_splits(A: np.ndarray, block_size: int = 256) -> list[list[tuple]]:
    """Partition a matrix into row-block records ``(first_row, block)``."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"A must be 2-D, got shape {A.shape}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    return [
        [(start, A[start : start + block_size])]
        for start in range(0, A.shape[0], block_size)
    ]


def _matvec_mapper(first_row, block, ctx):
    x = ctx.job.params["x"]
    yield (first_row, block @ x)


def mr_matvec(engine: MapReduceEngine, splits: list[list[tuple]], x: np.ndarray) -> np.ndarray:
    """``A @ x`` over row-block splits; returns the assembled dense vector."""
    x = np.asarray(x, dtype=np.float64)
    job = JobSpec(name="mr-matvec", mapper=_matvec_mapper, params={"x": x})
    result = engine.run(job, splits)
    pieces = sorted(result.output)  # sorted by first_row
    return np.concatenate([piece for _, piece in pieces])


def _gram_mapper(first_row, block, ctx):
    yield (0, block.T @ block)


def _gram_reducer(key, partials, ctx):
    total = partials[0]
    for partial in partials[1:]:
        total = total + partial
    yield (key, total)


def mr_gram(engine: MapReduceEngine, splits: list[list[tuple]]) -> np.ndarray:
    """``A.T @ A`` accumulated across row blocks (one reduce task)."""
    job = JobSpec(
        name="mr-gram",
        mapper=_gram_mapper,
        combiner=_gram_reducer,
        reducer=_gram_reducer,
        n_reducers=1,
        partitioner=lambda key, n: 0,
    )
    result = engine.run(job, splits)
    return result.output[0][1]
