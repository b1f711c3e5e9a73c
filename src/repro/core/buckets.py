"""Bucket grouping and merging — step 2 of DASC.

Points with identical signatures fall into the same bucket. Buckets whose
signatures share at least ``P`` of the ``M`` bits are then merged (Section
3.3); with the paper's ``P = M - 1`` the test is the Eq.-6 bit trick
``(A ^ B) & (A ^ B - 1) == 0``. Merging is transitive (chains of one-bit
neighbours coalesce), implemented as union-find over the unique signatures —
the pairwise O(T^2) comparison of the paper, with T = #unique signatures.

Small buckets (below ``min_bucket_size``) are folded into their nearest
surviving bucket by signature Hamming distance, so stragglers don't produce
degenerate one-point spectral problems. :func:`make_buckets` runs the three
steps in that order; it is the one partition rule ``DASC``,
``StreamingDASC`` and the ``DistributedDASC`` driver share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lsh.hamming import hamming_distance

__all__ = ["Buckets", "group_by_signature", "make_buckets", "merge_buckets"]


@dataclass
class Buckets:
    """A partition of point indices into hashing buckets.

    Attributes
    ----------
    assignments:
        (n,) int — bucket id per point, ids in ``[0, n_buckets)``.
    signatures:
        (n_buckets,) uint64 — a representative signature per bucket.
    n_bits:
        Signature length M.
    """

    assignments: np.ndarray
    signatures: np.ndarray
    n_bits: int

    def __post_init__(self):
        # Buckets are immutable by convention (every merge/fold builds a new
        # instance) and `sizes`/`members` cache off the stored arrays, so a
        # post-construction mutation would silently serve stale members.
        # Freeze both arrays up front: writes raise instead of corrupting.
        self.assignments = np.asarray(self.assignments)
        self.signatures = np.asarray(self.signatures, dtype=np.uint64)
        self.assignments.setflags(write=False)
        self.signatures.setflags(write=False)

    @property
    def n_buckets(self) -> int:
        """Number of buckets B."""
        return int(self.signatures.shape[0])

    @property
    def sizes(self) -> np.ndarray:
        """(B,) bucket sizes N_i; sums to the number of points.

        Computed once and cached (buckets are immutable by convention —
        every merge/fold builds a new :class:`Buckets`); the cached array
        is marked read-only so a caller cannot silently corrupt it.
        """
        cached = self.__dict__.get("_sizes_cache")
        if cached is None:
            cached = np.bincount(self.assignments, minlength=self.n_buckets)
            cached.setflags(write=False)
            self.__dict__["_sizes_cache"] = cached
        return cached

    def _member_index(self):
        """Cached ``(order, boundaries)`` pair: one stable argsort shared by
        every member lookup instead of an O(n) scan per bucket."""
        cached = self.__dict__.get("_member_index_cache")
        if cached is None:
            order = np.argsort(self.assignments, kind="stable")
            boundaries = np.searchsorted(
                self.assignments[order], np.arange(self.n_buckets + 1)
            )
            order.setflags(write=False)
            cached = (order, boundaries)
            self.__dict__["_member_index_cache"] = cached
        return cached

    def members(self, bucket_id: int) -> np.ndarray:
        """Point indices belonging to ``bucket_id``, in input order."""
        if not 0 <= bucket_id < self.n_buckets:
            raise IndexError(f"bucket_id {bucket_id} out of range [0, {self.n_buckets})")
        order, boundaries = self._member_index()
        # Stable sort keeps equal keys in input order, so the slice is
        # ascending — identical to the nonzero scan it replaces.
        return order[boundaries[bucket_id] : boundaries[bucket_id + 1]]

    def iter_members(self):
        """Yield ``(bucket_id, indices)`` for every bucket."""
        order, boundaries = self._member_index()
        for b in range(self.n_buckets):
            yield b, order[boundaries[b] : boundaries[b + 1]]


def group_by_signature(signatures: np.ndarray, n_bits: int) -> Buckets:
    """Bucket points by exact signature equality (one bucket per unique value)."""
    signatures = np.asarray(signatures, dtype=np.uint64)
    if signatures.ndim != 1:
        raise ValueError(f"signatures must be 1-D, got shape {signatures.shape}")
    unique, assignments = np.unique(signatures, return_inverse=True)
    return Buckets(assignments=assignments.astype(np.int64), signatures=unique, n_bits=n_bits)


class _UnionFind:
    """Union-find with path compression over ``n`` elements."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _merge_groups(buckets: Buckets, groups: np.ndarray) -> Buckets:
    """Re-label buckets according to a group id per original bucket.

    Group ids are themselves bucket indices (the star leader / union-find
    root / fold target), so each merged bucket's representative signature is
    its leader's signature.
    """
    unique_groups, compact = np.unique(groups, return_inverse=True)
    return Buckets(
        assignments=compact[buckets.assignments],
        signatures=buckets.signatures[unique_groups],
        n_bits=buckets.n_bits,
    )


def merge_buckets(buckets: Buckets, min_shared_bits: int, *, strategy: str = "star") -> Buckets:
    """Merge buckets whose signatures share at least ``min_shared_bits`` bits.

    ``min_shared_bits = M`` is a no-op; ``M - 1`` is the paper's default and
    uses the Eq.-6 one-bit test. Both strategies run the paper's pairwise
    O(T^2) comparison over the T unique signatures; they differ in how the
    pairwise merge relation is closed into a partition:

    * ``"star"`` (default) — greedy, largest bucket first (ties broken by
      lowest bucket id, i.e. lowest signature): each leader absorbs its
      still-unmerged near-duplicate signatures, and absorbed buckets do
      not recruit further. No chains, so two well-separated
      clusters never glue together through a trail of noise signatures;
      this preserves the parallelism (B stays large) that the paper's
      Section 4.1 analysis and Figure 5 bucket counts assume.
    * ``"transitive"`` — union-find closure of the pairwise relation (the
      literal reading of Section 3.3). On data whose occupied signatures
      are dense in the hypercube this can collapse everything into one
      bucket, which is the worst case discussed in Section 4.1.
    """
    m = buckets.n_bits
    if not 0 <= min_shared_bits <= m:
        raise ValueError(f"min_shared_bits must be in [0, {m}], got {min_shared_bits}")
    if strategy not in ("star", "transitive"):
        raise ValueError(f"unknown merge strategy {strategy!r}")
    if min_shared_bits == m or buckets.n_buckets <= 1:
        return buckets
    max_diff = m - min_shared_bits
    sigs = buckets.signatures

    if strategy == "transitive":
        uf = _UnionFind(buckets.n_buckets)
        # One vectorized XOR/popcount sweep per row block (instead of a
        # Python-level pair loop) discovers all mergeable pairs; the block
        # bounds the (block x T) distance temporary. Union order does not
        # matter: _UnionFind parents max roots to min roots, so each
        # component's label is its minimum member either way.
        n = buckets.n_buckets
        block = max(1, (1 << 22) // n)
        for start in range(0, n - 1, block):
            stop = min(start + block, n - 1)
            dist = hamming_distance(sigs[start:stop, None], sigs[None, :])
            ii, jj = np.nonzero(dist <= max_diff)
            ii += start
            for i, j in zip(ii.tolist(), jj.tolist()):
                if i < j:
                    uf.union(i, j)
        groups = np.array([uf.find(b) for b in range(buckets.n_buckets)], dtype=np.int64)
        return _merge_groups(buckets, groups)

    # Star merge: visit buckets largest-first; unclaimed buckets become
    # leaders and claim their unclaimed near-duplicates. Sorting the
    # *negated* sizes keeps the stable sort's lowest-id-first order within
    # each tie — reversing an ascending stable sort would visit equal-size
    # buckets highest-id-first instead.
    sizes = buckets.sizes
    order = np.argsort(-sizes, kind="stable")
    groups = np.full(buckets.n_buckets, -1, dtype=np.int64)
    for b in order:
        if groups[b] != -1:
            continue
        groups[b] = b
        dist = hamming_distance(sigs[b], sigs)
        near = np.nonzero((dist <= max_diff) & (groups == -1))[0]
        groups[near] = b
    return _merge_groups(buckets, groups)


def fold_small_buckets(buckets: Buckets, min_size: int) -> Buckets:
    """Fold buckets smaller than ``min_size`` into their Hamming-nearest big bucket.

    If every bucket is small, all points collapse into a single bucket (the
    worst case the paper's Section 4.1 discusses). Ties go to the
    lowest-signature neighbour for determinism.
    """
    if min_size <= 1 or buckets.n_buckets <= 1:
        return buckets
    sizes = buckets.sizes
    big = np.nonzero(sizes >= min_size)[0]
    if big.size == 0:
        groups = np.zeros(buckets.n_buckets, dtype=np.int64)
        return _merge_groups(buckets, groups)
    if big.size == buckets.n_buckets:
        return buckets
    groups = np.arange(buckets.n_buckets, dtype=np.int64)
    big_sigs = buckets.signatures[big]
    small = np.nonzero(sizes < min_size)[0]
    # One broadcast popcount (small x big) + row-wise argmin; argmin takes
    # the first minimum, i.e. the lowest big signature (np.unique sorted
    # them), matching the documented tie rule.
    dist = hamming_distance(buckets.signatures[small][:, None], big_sigs[None, :])
    groups[small] = big[np.argmin(dist, axis=1)]
    return _merge_groups(buckets, groups)


def make_buckets(signatures: np.ndarray, n_bits: int, config) -> Buckets:
    """The final partition of points with these signatures: group, merge, fold.

    ``config`` (a :class:`~repro.core.config.DASCConfig`) supplies P, the
    merge strategy and the minimum bucket size.
    """
    buckets = group_by_signature(signatures, n_bits)
    buckets = merge_buckets(
        buckets, config.resolve_min_shared_bits(n_bits), strategy=config.merge_strategy
    )
    return fold_small_buckets(buckets, config.min_bucket_size)
