"""Stage 1: Algorithm 1 — the LSH signature mapper.

The paper's mapper receives ``(index, inputVector)`` and, for each of the M
hash functions, looks up the function's hyperplane (dimension) and threshold
— global parameters precomputed by the driver from the dataset's spans and
histograms (Eqs. 4-5) — compares, and appends one bit to the signature
string. It emits ``(signature, index)`` as two Python ints, and that is all
the job flow checkpoints for this step.

The vectors do not travel with the signatures. The driver's merge action
joins each point's row from the flow's HDFS ``input`` file, by index, when
it writes the stage-2 ``buckets`` file; that join stands in for Hadoop's
reducers re-reading the vectors from HDFS.
"""

from __future__ import annotations

import numpy as np

from repro.mapreduce.types import JobSpec

__all__ = [
    "signature_mapper",
    "ConstantMapCost",
    "make_signature_job",
]


class ConstantMapCost:
    """Picklable constant per-record map cost.

    A module-level class (not a lambda) so the JobSpec survives pickling and
    the engine may dispatch its map tasks to worker processes.
    """

    __slots__ = ("cost",)

    def __init__(self, cost: float):
        self.cost = float(cost)

    def __call__(self, key, value) -> float:
        return self.cost

    def __repr__(self) -> str:
        return f"ConstantMapCost({self.cost!r})"


def signature_mapper(index, vector, ctx):
    """Algorithm 1, one input vector at a time.

    ``ctx.job.params`` must hold ``dimensions`` (M,), ``thresholds`` (M,):
    the driver-fitted hash parameters (``get_hyperplane`` / ``get_threshold``
    in the paper's pseudo-code). Emits ``(signature, index)``.
    """
    dims = ctx.job.params["dimensions"]
    thresholds = ctx.job.params["thresholds"]
    vec = np.asarray(vector, dtype=np.float64)
    sig = 0
    for j in range(len(dims)):
        # Algorithm 1 line 6: bit = 1 when the feature value is <= threshold.
        if vec[dims[j]] <= thresholds[j]:
            sig |= 1 << j
    ctx.increment("dasc", "signatures_emitted")
    yield (sig, int(index))


def make_signature_job(dimensions, thresholds, *, name: str = "dasc-stage1-lsh") -> JobSpec:
    """Build the map-only stage-1 JobSpec.

    Parameters
    ----------
    dimensions / thresholds:
        The fitted per-bit hash parameters (from
        :class:`repro.lsh.axis.AxisParallelHasher`).
    """
    dims = np.asarray(dimensions, dtype=np.int64)
    thr = np.asarray(thresholds, dtype=np.float64)
    if dims.shape != thr.shape or dims.ndim != 1 or dims.size == 0:
        raise ValueError("dimensions and thresholds must be equal-length non-empty vectors")
    m = dims.size
    return JobSpec(
        name=name,
        mapper=signature_mapper,
        reducer=None,  # map-only: the driver merges buckets before stage 2
        map_cost=ConstantMapCost(m),  # O(M) hash work per vector
        params={"dimensions": dims, "thresholds": thr},
    )
