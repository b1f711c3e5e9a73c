"""Tests for kernel functions, Gram matrices, and bandwidth heuristics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    BLOCKED_THRESHOLD,
    GaussianKernel,
    Kernel,
    gram_matrix,
    gram_matrix_auto,
    gram_matrix_blocked,
    mean_knn_heuristic,
    median_heuristic,
    pairwise_sq_distances,
)


class ComputeOnlyKernel(Kernel):
    """A plug-in kernel that defines only ``compute``, so it fills a Gram
    block through the base class's generic ``compute_into``."""

    def compute(self, X, Y):
        return (X @ Y.T + 1.0) ** 2


ALL_KERNELS = [GaussianKernel(0.7), ComputeOnlyKernel()]


def random_X(seed, n=20, d=5):
    return np.random.default_rng(seed).uniform(-1, 1, (n, d))


class TestPairwiseDistances:
    def test_matches_naive(self, rng):
        X = rng.uniform(0, 1, (15, 4))
        Y = rng.uniform(0, 1, (7, 4))
        d2 = pairwise_sq_distances(X, Y)
        naive = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2)
        assert np.allclose(d2, naive)

    def test_self_distances_zero_diag(self, rng):
        X = rng.uniform(0, 1, (10, 3))
        assert np.allclose(np.diag(pairwise_sq_distances(X)), 0.0)

    def test_nonnegative_despite_cancellation(self):
        # Nearly identical large-magnitude points provoke cancellation.
        X = np.full((5, 3), 1e8) + np.arange(15).reshape(5, 3) * 1e-8
        assert (pairwise_sq_distances(X) >= 0).all()


class TestKernelFunctions:
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: type(k).__name__)
    def test_symmetry(self, kernel):
        X = random_X(0)
        K = kernel(X)
        assert np.allclose(K, K.T)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: type(k).__name__)
    def test_positive_semidefinite(self, kernel):
        X = random_X(1, n=15)
        K = kernel(X)
        eigs = np.linalg.eigvalsh((K + K.T) / 2)
        assert eigs.min() > -1e-8

    def test_gaussian_eq1_value(self):
        """Eq. (1): S = exp(-||x-y||^2 / (2 sigma^2))."""
        k = GaussianKernel(sigma=2.0)
        X = np.array([[0.0, 0.0], [3.0, 4.0]])  # distance 5
        assert k(X)[0, 1] == pytest.approx(np.exp(-25.0 / 8.0))

    def test_gaussian_range(self, rng):
        K = GaussianKernel(0.5)(rng.uniform(0, 1, (30, 6)))
        assert (K > 0).all() and (K <= 1.0 + 1e-12).all()

    def test_gaussian_bandwidth_controls_decay(self):
        X = np.array([[0.0], [1.0]])
        assert GaussianKernel(0.1)(X)[0, 1] < GaussianKernel(10.0)(X)[0, 1]

    def test_cross_kernel_shape(self):
        k = GaussianKernel(1.0)
        K = k(random_X(0, n=6), random_X(1, n=9))
        assert K.shape == (6, 9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            GaussianKernel(1.0)(random_X(0, d=3), random_X(1, d=4))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GaussianKernel(0.0)


class TestGramMatrix:
    def test_zero_diagonal_flag(self, rng):
        X = rng.uniform(0, 1, (12, 4))
        K = gram_matrix(X, GaussianKernel(1.0), zero_diagonal=True)
        assert np.allclose(np.diag(K), 0.0)
        K2 = gram_matrix(X, GaussianKernel(1.0))
        assert np.allclose(np.diag(K2), 1.0)

    @given(st.integers(1, 7), st.integers(0, 5))
    @settings(max_examples=25, deadline=None)
    def test_blocked_matches_plain(self, block_size, seed):
        X = random_X(seed, n=23, d=4)
        k = GaussianKernel(0.8)
        plain = gram_matrix(X, k)
        blocked = gram_matrix_blocked(X, k, block_size=block_size)
        assert np.allclose(plain, blocked)

    def test_blocked_zero_diagonal(self, rng):
        X = rng.uniform(0, 1, (10, 3))
        K = gram_matrix_blocked(X, GaussianKernel(1.0), block_size=3, zero_diagonal=True)
        assert np.allclose(np.diag(K), 0.0)

    def test_blocked_invalid_block(self, rng):
        with pytest.raises(ValueError):
            gram_matrix_blocked(rng.uniform(0, 1, (4, 2)), GaussianKernel(1.0), block_size=0)


class TestBandwidth:
    def test_median_heuristic_scale_equivariant(self, rng):
        X = rng.uniform(0, 1, (100, 5))
        assert median_heuristic(3.0 * X) == pytest.approx(3.0 * median_heuristic(X), rel=0.05)

    def test_median_degenerate_data(self):
        assert median_heuristic(np.ones((10, 3))) == 1.0

    def test_median_subsamples_large_input(self, rng):
        X = rng.uniform(0, 1, (2000, 3))
        assert median_heuristic(X, max_samples=64) > 0

    def test_knn_heuristic_smaller_than_median_for_clusters(self, blobs_small):
        X, _ = blobs_small
        # Within-cluster kth-NN distances are far below the global median.
        assert mean_knn_heuristic(X, k=5) < median_heuristic(X)

    def test_knn_invalid_k(self, blobs_small):
        with pytest.raises(ValueError):
            mean_knn_heuristic(blobs_small[0], k=0)

    def test_knn_single_point(self):
        assert mean_knn_heuristic(np.ones((1, 3))) == 1.0


class TestGramMatrixAuto:
    """The single blocked/unblocked dispatch shared by every Gram consumer."""

    def test_below_threshold_is_bitwise_plain(self, rng):
        from repro.kernels import gram_matrix_auto

        X = rng.uniform(-1, 1, (40, 5))
        k = GaussianKernel(0.9)
        auto = gram_matrix_auto(X, k, threshold=64, block_size=32)
        ref = gram_matrix(X, k)
        assert np.array_equal(auto, ref)  # same code path, bit-for-bit

    def test_above_threshold_is_bitwise_blocked(self, rng):
        from repro.kernels import gram_matrix_auto

        X = rng.uniform(-1, 1, (80, 5))
        k = GaussianKernel(0.9)
        auto = gram_matrix_auto(X, k, threshold=64, block_size=32)
        ref = gram_matrix_blocked(X, k, block_size=32)
        assert np.array_equal(auto, ref)

    def test_zero_diagonal_passthrough(self, rng):
        from repro.kernels import gram_matrix_auto

        X = rng.uniform(-1, 1, (70, 4))
        K = gram_matrix_auto(X, GaussianKernel(1.0), threshold=64, block_size=32,
                             zero_diagonal=True)
        assert np.allclose(np.diag(K), 0.0)

    @pytest.mark.parametrize("delta", [-1, 0, +1])
    def test_boundary_agreement_at_block_size(self, delta):
        """Blocked vs plain at n = block_size - 1, block_size, block_size + 1.

        At n <= block_size the blocked path issues the exact same single
        kernel call as the plain path, so the results are bitwise equal. At
        n = block_size + 1 the second panel splits the underlying BLAS
        products into different shapes; gemm is not bitwise-reproducible
        across problem partitionings, so agreement there is to a few ULPs,
        not bit-for-bit.
        """
        block_size = 64
        n = block_size + delta
        X = np.random.default_rng(delta + 5).uniform(-1, 1, (n, 6))
        k = GaussianKernel(0.8)
        plain = gram_matrix(X, k)
        blocked = gram_matrix_blocked(X, k, block_size=block_size)
        if delta <= 0:
            assert np.array_equal(plain, blocked)
        else:
            np.testing.assert_allclose(blocked, plain, rtol=0, atol=5e-14)


def _gaussian_one_temporary_per_step(X, Y, sigma):
    """Eq. (1) the plain way: every step of the expression allocates."""
    x2 = np.einsum("ij,ij->i", X, X)[:, None]
    y2 = np.einsum("ij,ij->i", Y, Y)[None, :]
    d2 = x2 + y2 - 2.0 * (X @ Y.T)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(d2 / (-2.0 * sigma**2))


def _gram_one_temporary_per_step(X, sigma, zero_diagonal, threshold, block_size):
    """The same partition as gram_matrix_auto, each panel built apart and copied in."""
    n = X.shape[0]
    if n <= threshold:
        K = _gaussian_one_temporary_per_step(X, X, sigma)
    else:
        K = np.empty((n, n))
        for start in range(0, n, block_size):
            stop = min(start + block_size, n)
            panel = _gaussian_one_temporary_per_step(X[start:stop], X[start:], sigma)
            K[start:stop, start:] = panel
            K[start:, start:stop] = panel.T
    if zero_diagonal:
        np.fill_diagonal(K, 0.0)
    return K


class TestInPlaceGaussian:
    """The Gaussian is built inside its output and must be the same bits."""

    @pytest.mark.parametrize("zero_diagonal", [True, False])
    @pytest.mark.parametrize(
        "n, threshold, block_size",
        [
            (BLOCKED_THRESHOLD, BLOCKED_THRESHOLD, 1024),
            (BLOCKED_THRESHOLD + 1, BLOCKED_THRESHOLD, 1024),
            (3072, BLOCKED_THRESHOLD, 1024),
            (3073, BLOCKED_THRESHOLD, 1024),
            (63, 64, 32),
            (64, 64, 32),
            (65, 64, 32),
            (96, 64, 32),
            (97, 64, 32),
        ],
    )
    def test_gram_bitwise_equal(self, n, threshold, block_size, zero_diagonal):
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, 8))
        X[n // 2] = X[3]  # a duplicate row: a zero distance off the diagonal
        got = gram_matrix_auto(
            X, GaussianKernel(0.6), zero_diagonal=zero_diagonal,
            threshold=threshold, block_size=block_size,
        )
        want = _gram_one_temporary_per_step(X, 0.6, zero_diagonal, threshold, block_size)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("m, n", [(1, 50), (7, 300), (300, 7)])
    def test_cross_kernel_bitwise_equal(self, m, n):
        rng = np.random.default_rng(m + n)
        X, Y = rng.standard_normal((m, 5)), rng.standard_normal((n, 5))
        assert np.array_equal(GaussianKernel(0.8)(X, Y), _gaussian_one_temporary_per_step(X, Y, 0.8))

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: type(k).__name__)
    def test_compute_into_fills_a_strided_view(self, kernel, rng):
        X, Y = rng.standard_normal((6, 3)), rng.standard_normal((9, 3))
        buffer = np.full((8, 12), np.nan)
        out = buffer[1:7, 2:11]
        assert kernel.compute_into(X, Y, out) is out
        np.testing.assert_array_equal(out, kernel(X, Y))
        assert np.isnan(buffer[0]).all() and np.isnan(buffer[:, :2]).all()
