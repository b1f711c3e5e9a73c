"""Core MapReduce data types.

A *mapper* is a callable ``(key, value, context) -> iterable[(k2, v2)]``; a
*reducer* is ``(key, values, context) -> iterable[(k3, v3)]``. ``context``
exposes Hadoop-style counters. A :class:`JobSpec` bundles the callables with
shuffle policy (partitioner, comparator, combiner) — enough surface to
express the paper's Algorithms 1 and 2 idiomatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = ["MapTaskResult", "JobSpec"]


@dataclass
class MapTaskResult:
    """Output of one map task: emitted records plus cost accounting."""

    records: list[tuple]
    n_input_records: int
    cost: float  # abstract work units consumed (drives the simulated clock)


@dataclass
class JobSpec:
    """A single MapReduce job definition.

    Parameters
    ----------
    name:
        Human-readable job name (shows up in counters and logs).
    mapper:
        ``(key, value, context) -> iterable[(k, v)]``.
    reducer:
        ``(key, values, context) -> iterable[(k, v)]``. ``None`` makes the
        job map-only (identity shuffle, records pass through).
    combiner:
        Optional map-side pre-reducer with the reducer signature.
    partitioner:
        ``(key, n_partitions) -> int``; default hash partitioning.
    n_reducers:
        Number of reduce partitions.
    sort_keys:
        Sort each partition's keys before reducing (Hadoop semantics).
    map_cost / reduce_cost:
        Optional cost models ``(key, value) -> float`` and
        ``(key, values) -> float`` feeding the simulated clock; default cost
        is one unit per record.
    """

    name: str
    mapper: Callable[[Any, Any, Any], Iterable[tuple]]
    reducer: Callable[[Any, Any, Any], Iterable[tuple]] | None = None
    combiner: Callable[[Any, Any, Any], Iterable[tuple]] | None = None
    partitioner: Callable[[Any, int], int] | None = None
    n_reducers: int = 1
    sort_keys: bool = True
    map_cost: Callable[[Any, Any], float] | None = None
    reduce_cost: Callable[[Any, Any], float] | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_reducers < 1:
            raise ValueError(f"n_reducers must be >= 1, got {self.n_reducers}")
