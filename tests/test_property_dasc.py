"""Property-based tests of the DASC estimator's contract.

Hypothesis drives random (data, configuration) combinations through the
full pipeline and checks the invariants every run must satisfy: labels
cover exactly the requested range, the partition is seed-deterministic, the
approximation never stores more than the full matrix, and the Fnorm ratio
stays in [0, 1].
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DASC, DASCConfig
from repro.kernels import GaussianKernel, gram_matrix
from repro.metrics import fnorm_ratio

configs = st.fixed_dictionaries(
    {
        "n_bits": st.integers(1, 8),
        "min_bucket_size": st.integers(1, 12),
        "merge_strategy": st.sampled_from(["star", "transitive"]),
        "allocation": st.sampled_from(["proportional", "fixed", "eigengap"]),
        "threshold_policy": st.sampled_from(["histogram_valley", "median"]),
    }
)


def random_data(seed: int, n: int = 60, d: int = 6) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 1, (4, d))
    return np.clip(
        centers[rng.integers(0, 4, n)] + rng.normal(0, 0.05, (n, d)), 0, 1
    )


class TestDASCInvariants:
    @given(st.integers(0, 30), configs)
    @settings(max_examples=25, deadline=None)
    def test_labels_cover_exact_range(self, seed, cfg):
        X = random_data(seed)
        dasc = DASC(3, sigma=0.4, seed=0, **cfg)
        labels = dasc.fit_predict(X)
        assert labels.shape == (X.shape[0],)
        assert labels.min() == 0
        assert labels.max() == dasc.n_clusters_ - 1
        # Every id in [0, n_clusters_) is used (refine compacts; per-bucket
        # construction assigns each block at least one point per cluster).
        assert len(np.unique(labels)) == dasc.n_clusters_

    @given(st.integers(0, 20), configs)
    @settings(max_examples=15, deadline=None)
    def test_seed_determinism(self, seed, cfg):
        X = random_data(seed)
        a = DASC(3, sigma=0.4, seed=7, **cfg).fit_predict(X)
        b = DASC(3, sigma=0.4, seed=7, **cfg).fit_predict(X)
        assert np.array_equal(a, b)

    @given(st.integers(0, 30), configs)
    @settings(max_examples=20, deadline=None)
    def test_approximation_never_exceeds_full_matrix(self, seed, cfg):
        X = random_data(seed)
        dasc = DASC(3, sigma=0.4, seed=0, **cfg)
        approx = dasc.transform(X)
        assert approx.stored_entries <= X.shape[0] ** 2
        assert approx.block_sizes.sum() == X.shape[0]

    @given(st.integers(0, 30), configs)
    @settings(max_examples=15, deadline=None)
    def test_fnorm_ratio_unit_interval(self, seed, cfg):
        X = random_data(seed)
        dasc = DASC(3, sigma=0.4, seed=0, **cfg)
        approx = dasc.transform(X)
        full = gram_matrix(X, GaussianKernel(0.4), zero_diagonal=True)
        assert 0.0 <= fnorm_ratio(approx, full) <= 1.0 + 1e-12

    @given(st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_buckets_partition_points(self, seed):
        X = random_data(seed)
        dasc = DASC(3, seed=0)
        buckets = dasc.partition(X)
        seen = np.concatenate([buckets.members(b) for b in range(buckets.n_buckets)])
        assert sorted(seen.tolist()) == list(range(X.shape[0]))
