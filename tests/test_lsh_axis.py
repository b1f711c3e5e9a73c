"""Tests for the paper's axis-parallel hasher (Eqs. 4-5) and its policies."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lsh.axis import (
    AxisParallelHasher,
    dimension_spans,
    histogram_valley_threshold,
    span_selection_probabilities,
)


class TestSpans:
    def test_known_spans(self):
        X = np.array([[0.0, 1.0], [2.0, 1.0], [1.0, 1.0]])
        assert dimension_spans(X).tolist() == [2.0, 0.0]

    def test_probabilities_eq4(self):
        probs = span_selection_probabilities(np.array([3.0, 1.0]))
        assert probs.tolist() == [0.75, 0.25]

    def test_zero_span_falls_back_to_uniform(self):
        probs = span_selection_probabilities(np.zeros(4))
        assert np.allclose(probs, 0.25)

    def test_negative_span_rejected(self):
        with pytest.raises(ValueError):
            span_selection_probabilities(np.array([-1.0, 1.0]))

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_probabilities_sum_to_one(self, spans):
        probs = span_selection_probabilities(np.array(spans))
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= 0).all()


class TestValleyThreshold:
    def test_eq5_bimodal_valley(self):
        # Two tight modes at 0 and 1: the least-populated bin is in the gap.
        rng = np.random.default_rng(0)
        lo_mode = rng.normal(0.0, 0.01, 500)
        hi_mode = rng.normal(1.0, 0.01, 500)
        tau = histogram_valley_threshold(np.concatenate([lo_mode, hi_mode]))
        # The threshold must fall in the inter-mode gap, separating the modes
        # (ties in the bin counts resolve to the first empty bin, so tau sits
        # at the low edge of the gap).
        assert lo_mode.max() < tau < hi_mode.min()

    def test_constant_dimension(self):
        assert histogram_valley_threshold(np.full(10, 3.5)) == 3.5

    def test_left_skewed_bin0_minimum_does_not_degenerate(self):
        # Left-skewed column: a lone point at the minimum makes bin 0 the
        # least-populated bin (count 1), every other bin holds >= 2 points
        # with a genuine valley at bin 10. Regression: taking bin 0 puts the
        # threshold AT the column minimum, so the resulting Algorithm-1 bit
        # (x <= tau) is 1 only for the exact minima — a wasted signature bit.
        width = 1.0 / 20
        parts = [np.array([0.0, 1.0])]  # pin lo=0, hi=1 (1.0 joins bin 19)
        for i in range(1, 20):
            count = 2 if i == 10 else 4
            parts.append(np.full(count, (i + 0.4) * width))
        values = np.concatenate(parts)
        tau = histogram_valley_threshold(values)
        # fall back to the least-populated interior bin: lower edge of bin 10
        assert tau == pytest.approx(10 * width)
        assert tau > values.min()
        # the induced bit actually splits the data
        below = int((values <= tau).sum())
        assert 0 < below < values.size

    def test_single_bin_keeps_lower_edge(self):
        values = np.array([0.0, 0.2, 0.9])
        assert histogram_valley_threshold(values, n_bins=1) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram_valley_threshold(np.array([]))

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=200), st.integers(0, 5))
    @settings(max_examples=50, deadline=None)
    # Spans too narrow or too wide for np.histogram to cut into 20 finite bins.
    @example([0.0, 5e-324], 0)
    @example([1.0, float(np.nextafter(1.0, 2.0))], 0)
    @example([-1e308, 1e308], 0)
    def test_threshold_within_range(self, values, _):
        values = np.array(values)
        tau = histogram_valley_threshold(values)
        assert values.min() <= tau <= values.max()


class TestAxisParallelHasher:
    def test_requires_fit(self, blobs_small):
        X, _ = blobs_small
        with pytest.raises(RuntimeError):
            AxisParallelHasher(4).hash(X)

    def test_bits_shape_and_binary(self, blobs_small):
        X, _ = blobs_small
        bits = AxisParallelHasher(6, seed=0).fit(X).hash_bits(X)
        assert bits.shape == (X.shape[0], 6)
        assert set(np.unique(bits)) <= {0, 1}

    def test_deterministic_given_seed(self, blobs_small):
        X, _ = blobs_small
        s1 = AxisParallelHasher(5, seed=3).fit_hash(X)
        s2 = AxisParallelHasher(5, seed=3).fit_hash(X)
        assert np.array_equal(s1, s2)

    def test_algorithm1_polarity(self):
        # bit = 1 iff value <= threshold (Algorithm 1 line 6).
        X = np.array([[0.0], [10.0]] * 10)
        h = AxisParallelHasher(1, seed=0).fit(X)
        bits = h.hash_bits(np.array([[h.thresholds_[0] - 1], [h.thresholds_[0] + 1]]))
        assert bits[0, 0] == 1 and bits[1, 0] == 0

    def test_top_span_policy_picks_widest(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.uniform(0, 10, 100), rng.uniform(0, 0.1, 100)])
        h = AxisParallelHasher(1, dimension_policy="top_span", seed=0).fit(X)
        assert h.dimensions_[0] == 0

    def test_top_span_cycles_when_m_exceeds_d(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (50, 3))
        h = AxisParallelHasher(7, dimension_policy="top_span", seed=0).fit(X)
        assert len(h.dimensions_) == 7
        assert set(h.dimensions_) == {0, 1, 2}

    def test_span_weighted_prefers_wide_dimensions(self):
        rng = np.random.default_rng(1)
        X = np.column_stack([rng.uniform(0, 10, 200)] + [rng.uniform(0, 0.01, 200) for _ in range(9)])
        h = AxisParallelHasher(32, seed=1).fit(X)
        assert np.mean(h.dimensions_ == 0) > 0.8  # span ratio is 1000:1

    def test_median_threshold_policy_balances(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (1000, 4))
        h = AxisParallelHasher(1, threshold_policy="median", seed=2).fit(X)
        bits = h.hash_bits(X)
        assert 0.4 < bits.mean() < 0.6

    def test_similar_points_collide_more(self, blobs_small):
        X, y = blobs_small
        sigs = AxisParallelHasher(4, seed=0).fit_hash(X)
        same = sum(sigs[i] == sigs[j] for i in range(0, 50) for j in range(i + 1, 50) if y[i] == y[j])
        diff = sum(sigs[i] == sigs[j] for i in range(0, 50) for j in range(i + 1, 50) if y[i] != y[j])
        assert same > diff

    @pytest.mark.parametrize("kwargs", [
        {"n_bits": 0},
        {"n_bits": 2, "dimension_policy": "bogus"},
        {"n_bits": 2, "threshold_policy": "bogus"},
    ])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            AxisParallelHasher(**kwargs)

    def test_nonfinite_data_rejected_at_fit(self, blobs_small):
        X, _ = blobs_small
        X = X.copy()
        X[5, 2] = np.nan
        hasher = AxisParallelHasher(4, seed=0)
        with pytest.raises(ValueError, match=r"non-finite.*column\(s\) \[2\]"):
            hasher.fit(X)

    def test_constant_data_hashes_identically(self):
        X = np.ones((20, 5))
        sigs = AxisParallelHasher(4, seed=0).fit_hash(X)
        assert len(np.unique(sigs)) == 1
