"""Tests for per-bucket cluster allocation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import allocate_clusters


class TestProportional:
    def test_uniform_buckets_split_evenly(self):
        # The paper's Section-4.1 setting: K/B clusters per equal bucket.
        alloc = allocate_clusters([100, 100, 100, 100], 8)
        assert alloc.tolist() == [2, 2, 2, 2]

    def test_sum_equals_budget(self):
        alloc = allocate_clusters([50, 30, 20], 10)
        assert alloc.sum() == 10

    def test_proportionality(self):
        alloc = allocate_clusters([80, 10, 10], 10)
        assert alloc[0] == 8 and alloc[1] == 1 and alloc[2] == 1

    def test_every_bucket_gets_at_least_one(self):
        alloc = allocate_clusters([1000, 1, 1], 3)
        assert (alloc >= 1).all()

    def test_no_bucket_exceeds_its_size(self):
        alloc = allocate_clusters([2, 1000], 500)
        assert alloc[0] <= 2

    def test_budget_below_bucket_count_raised_to_b(self):
        # Each bucket needs >= 1 cluster, so the effective budget is B.
        alloc = allocate_clusters([5, 5, 5, 5], 2)
        assert alloc.tolist() == [1, 1, 1, 1]

    def test_budget_above_total_points_clipped(self):
        alloc = allocate_clusters([2, 3], 100)
        assert alloc.tolist() == [2, 3]

    @given(
        st.lists(st.integers(1, 50), min_size=1, max_size=20),
        st.integers(1, 60),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariants(self, sizes, k):
        alloc = allocate_clusters(sizes, k)
        sizes = np.array(sizes)
        assert (alloc >= 1).all()
        assert (alloc <= sizes).all()
        expected_budget = min(max(k, len(sizes)), int(sizes.sum()))
        assert alloc.sum() == expected_budget


class TestFixedPolicy:
    def test_every_bucket_gets_min_k_ni(self):
        alloc = allocate_clusters([10, 3, 1], 5, policy="fixed")
        assert alloc.tolist() == [5, 3, 1]


class TestEigengapPolicy:
    def test_estimates_are_the_allocation_when_they_cover_k(self):
        alloc = allocate_clusters([90, 10], 3, policy="eigengap", eigengap_k=[1, 2])
        assert alloc.tolist() == [1, 2]

    def test_proportional_share_floors_an_underestimate(self):
        alloc = allocate_clusters([90, 10], 10, policy="eigengap", eigengap_k=[2, 2])
        assert alloc.tolist() == [9, 2]

    def test_estimates_required(self):
        with pytest.raises(ValueError, match="eigengap_k"):
            allocate_clusters([90, 10], 10, policy="eigengap")


class TestValidation:
    def test_empty_sizes(self):
        with pytest.raises(ValueError):
            allocate_clusters([], 3)

    def test_zero_bucket(self):
        with pytest.raises(ValueError):
            allocate_clusters([3, 0], 2)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            allocate_clusters([3], 0)

    def test_unknown_policy(self):
        for policy in ("magic", "sqrt"):
            with pytest.raises(ValueError, match="unknown policy"):
                allocate_clusters([3], 1, policy=policy)
