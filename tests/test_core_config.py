"""Tests for DASCConfig and the paper's parameter defaults."""

import numpy as np
import pytest

from repro.core import DASCConfig, default_n_bits, default_n_clusters
from repro.kernels.bandwidth import mean_knn_heuristic, median_heuristic


class TestDefaultNBits:
    @pytest.mark.parametrize("n,expected", [
        (2**10, 4),   # floor(10/2) - 1
        (2**15, 6),   # floor(15/2)=7 -1
        (2**18, 8),
        (2**20, 9),
        (2**21, 9),   # floor(21/2)=10 -1
    ])
    def test_paper_formula(self, n, expected):
        assert default_n_bits(n) == expected

    def test_clamped_below(self):
        assert default_n_bits(2) == 1
        assert default_n_bits(1) == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            default_n_bits(0)


class TestDefaultNClusters:
    @pytest.mark.parametrize("n,expected", [
        (1024, 17),       # Table 1's first row: 17 * (10 - 9)
        (2048, 34),       # 17 * 2
        (1048576, 187),   # 17 * 11
    ])
    def test_eq15(self, n, expected):
        assert default_n_clusters(n) == expected

    def test_clamped_to_one_for_small_n(self):
        assert default_n_clusters(512) == 1
        assert default_n_clusters(4) == 1


class TestDASCConfig:
    def test_resolves_defaults(self):
        cfg = DASCConfig()
        assert cfg.resolve_n_bits(1024) == 4
        assert cfg.resolve_n_clusters(1024) == 17
        assert cfg.resolve_min_shared_bits(4) == 3  # P = M - 1

    def test_explicit_overrides(self):
        cfg = DASCConfig(n_bits=7, n_clusters=5, min_shared_bits=4)
        assert cfg.resolve_n_bits(10**6) == 7
        assert cfg.resolve_n_clusters(10**6) == 5
        assert cfg.resolve_min_shared_bits(7) == 4

    def test_p_equals_m_disables_merge(self):
        cfg = DASCConfig(min_shared_bits=3)
        assert cfg.resolve_min_shared_bits(3) == 3

    @pytest.mark.parametrize("field,value", [
        ("n_bits", 0), ("n_bits", 65), ("n_clusters", 0), ("min_shared_bits", -1),
    ])
    def test_invalid_values_rejected_at_resolve(self, field, value):
        cfg = DASCConfig(**{field: value})
        with pytest.raises(ValueError):
            cfg.resolve_n_bits(100)
            cfg.resolve_n_clusters(100)
            cfg.resolve_min_shared_bits(cfg.resolve_n_bits(100))

    def test_min_shared_bits_above_m_rejected(self):
        cfg = DASCConfig(min_shared_bits=5)
        with pytest.raises(ValueError):
            cfg.resolve_min_shared_bits(4)

    def test_resolve_sigma_rule(self):
        X = np.random.default_rng(0).normal(size=(60, 3))
        assert DASCConfig(sigma=0.5).resolve_sigma(X) == 0.5
        assert DASCConfig(sigma=np.inf).resolve_sigma(X) == np.inf
        assert DASCConfig(seed=3).resolve_sigma(X) == median_heuristic(X, seed=3)
        eigengap = DASCConfig(seed=3, allocation="eigengap")
        assert eigengap.resolve_sigma(X) == mean_knn_heuristic(X, seed=3)
