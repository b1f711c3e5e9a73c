"""Shared utilities: RNG plumbing, validation, timing, and memory accounting."""

from repro.utils.rng import as_rng
from repro.utils.timing import Stopwatch, timed
from repro.utils.memory import (
    dense_matrix_bytes,
    block_diagonal_bytes,
    sparse_matrix_bytes,
    traced_peak,
    MemoryLedger,
)
from repro.utils.validation import (
    check_2d,
    check_labels,
    check_positive,
    check_square,
)

__all__ = [
    "as_rng",
    "Stopwatch",
    "timed",
    "dense_matrix_bytes",
    "block_diagonal_bytes",
    "sparse_matrix_bytes",
    "traced_peak",
    "MemoryLedger",
    "check_2d",
    "check_labels",
    "check_positive",
    "check_square",
]
