"""Tests for the block-diagonal approximate kernel matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx_kernel import build_approximate_kernel
from repro.core.buckets import group_by_signature
from repro.kernels import GaussianKernel, gram_matrix
from repro.metrics import fnorm_ratio, frobenius_norm


def make_approx(X, sigs, n_bits=3, sigma=0.5, zero_diagonal=True):
    buckets = group_by_signature(np.array(sigs, dtype=np.uint64), n_bits)
    return build_approximate_kernel(X, buckets, GaussianKernel(sigma), zero_diagonal=zero_diagonal), buckets


class TestBuild:
    def test_single_bucket_equals_full_matrix(self, rng):
        X = rng.uniform(0, 1, (20, 4))
        approx, _ = make_approx(X, [0] * 20)
        full = gram_matrix(X, GaussianKernel(0.5), zero_diagonal=True)
        assert np.allclose(approx.to_dense(), full)

    def test_block_structure(self, rng):
        X = rng.uniform(0, 1, (10, 3))
        sigs = [0] * 4 + [1] * 6
        approx, buckets = make_approx(X, sigs)
        dense = approx.to_dense()
        # Cross-bucket entries are zero.
        idx0, idx1 = buckets.members(0), buckets.members(1)
        assert np.allclose(dense[np.ix_(idx0, idx1)], 0.0)
        # Within-bucket entries match the true kernel.
        full = gram_matrix(X, GaussianKernel(0.5), zero_diagonal=True)
        assert np.allclose(dense[np.ix_(idx0, idx0)], full[np.ix_(idx0, idx0)])

    def test_zero_diagonal_honoured(self, rng):
        X = rng.uniform(0, 1, (8, 3))
        approx, _ = make_approx(X, [0] * 4 + [1] * 4, zero_diagonal=True)
        assert np.allclose(np.diag(approx.to_dense()), 0.0)
        approx2, _ = make_approx(X, [0] * 4 + [1] * 4, zero_diagonal=False)
        assert np.allclose(np.diag(approx2.to_dense()), 1.0)

    def test_point_count_mismatch(self, rng):
        X = rng.uniform(0, 1, (5, 2))
        buckets = group_by_signature(np.zeros(4, dtype=np.uint64), 2)
        with pytest.raises(ValueError):
            build_approximate_kernel(X, buckets, GaussianKernel(1.0))


class TestAccounting:
    def test_nbytes_is_eq12(self, rng):
        X = rng.uniform(0, 1, (10, 3))
        approx, buckets = make_approx(X, [0] * 3 + [1] * 7)
        assert approx.nbytes == 4 * (3 * 3 + 7 * 7)

    def test_stored_entries(self, rng):
        X = rng.uniform(0, 1, (10, 3))
        approx, _ = make_approx(X, [0] * 3 + [1] * 7)
        assert approx.stored_entries == 9 + 49

    def test_block_sizes_sorted_by_bucket_id(self, rng):
        X = rng.uniform(0, 1, (9, 2))
        approx, buckets = make_approx(X, [2, 2, 5, 5, 5, 5, 9, 9, 9], 4)
        assert approx.block_sizes.tolist() == buckets.sizes.tolist()

    def test_frobenius_from_blocks_matches_dense(self, rng):
        X = rng.uniform(0, 1, (15, 4))
        approx, _ = make_approx(X, [0] * 5 + [1] * 5 + [2] * 5)
        assert approx.frobenius_norm() == pytest.approx(
            frobenius_norm(approx.to_dense())
        )


class TestApproximationQuality:
    @given(st.integers(0, 30))
    @settings(max_examples=25, deadline=None)
    def test_fnorm_ratio_in_unit_interval(self, seed):
        """Figure 5's invariant: zeroing entries only lowers the Frobenius norm."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, (20, 4))
        sigs = rng.integers(0, 4, 20)
        approx, _ = make_approx(X, sigs.tolist())
        full = gram_matrix(X, GaussianKernel(0.5), zero_diagonal=True)
        ratio = fnorm_ratio(approx, full)
        assert 0.0 <= ratio <= 1.0 + 1e-12

    def test_finer_buckets_lower_ratio(self, rng):
        """More buckets discard more entries -> smaller Fnorm ratio (Fig. 5)."""
        X = rng.uniform(0, 1, (40, 4))
        full = gram_matrix(X, GaussianKernel(0.5), zero_diagonal=True)
        coarse, _ = make_approx(X, [i % 2 for i in range(40)])
        fine, _ = make_approx(X, [i % 8 for i in range(40)])
        assert fnorm_ratio(fine, full) < fnorm_ratio(coarse, full)
