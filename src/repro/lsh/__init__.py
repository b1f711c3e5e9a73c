"""Locality-sensitive hashing substrate.

The paper (Section 3.2) "studied various LSH families, including random
projection, stable distributions, and Min-Wise Independent Permutations" and
settled on an axis-parallel random-projection family whose hyperplanes and
thresholds follow a k-d-tree splitting rule. That family is the one
implemented here (:class:`AxisParallelHasher`), with the packed-bit signature
machinery (Hamming distance, the Eq.-6 one-bit-difference trick) that the
bucketing stage builds on.
"""

from repro.lsh.hamming import (
    pack_bits,
    unpack_bits,
    hamming_distance,
    popcount,
    differs_in_at_most_one_bit,
    signature_strings,
)
from repro.lsh.axis import AxisParallelHasher, dimension_spans, histogram_valley_threshold

__all__ = [
    "pack_bits",
    "unpack_bits",
    "hamming_distance",
    "popcount",
    "differs_in_at_most_one_bit",
    "signature_strings",
    "AxisParallelHasher",
    "dimension_spans",
    "histogram_valley_threshold",
]
