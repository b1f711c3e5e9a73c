"""Unit tests for repro.utils (rng, timing, memory, validation)."""

import numpy as np
import pytest

from repro.utils import (
    MemoryLedger,
    Stopwatch,
    as_rng,
    block_diagonal_bytes,
    check_2d,
    check_labels,
    check_positive,
    check_square,
    dense_matrix_bytes,
    sparse_matrix_bytes,
    timed,
    traced_peak,
)


class TestRng:
    def test_int_seed_is_deterministic(self):
        assert as_rng(7).integers(1000) == as_rng(7).integers(1000)

    def test_generator_passthrough_shares_state(self):
        gen = np.random.default_rng(0)
        same = as_rng(gen)
        assert same is gen

    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)


class TestTiming:
    def test_stopwatch_accumulates_laps(self):
        sw = Stopwatch()
        with sw.lap("a"):
            pass
        with sw.lap("a"):
            pass
        with sw.lap("b"):
            pass
        assert set(sw.laps) == {"a", "b"}
        assert sw.total == pytest.approx(sw.laps["a"] + sw.laps["b"])

    def test_stopwatch_merge_sums(self):
        a, b = Stopwatch(), Stopwatch()
        a.laps["x"] = 1.0
        b.laps["x"] = 2.0
        b.laps["y"] = 3.0
        a.merge(b)
        assert a.laps == {"x": 3.0, "y": 3.0}

    def test_stopwatch_merge_empty_other_is_noop(self):
        a = Stopwatch()
        a.laps["x"] = 1.5
        a.merge(Stopwatch())
        assert a.laps == {"x": 1.5}

    def test_stopwatch_lap_records_on_exception(self):
        sw = Stopwatch()
        with pytest.raises(RuntimeError):
            with sw.lap("fails"):
                raise RuntimeError("boom")
        assert "fails" in sw.laps
        assert sw.laps["fails"] >= 0.0

    def test_timed_records_nonnegative(self):
        with timed() as box:
            sum(range(100))
        assert box[0] >= 0.0

    def test_timed_box_is_zero_until_exit_then_filled(self):
        with timed() as box:
            assert box == [0.0]  # filled only at scope exit
            inner = box
        assert inner is box
        assert box[0] >= 0.0

    def test_timed_fills_box_on_exception(self):
        with pytest.raises(ValueError):
            with timed() as box:
                raise ValueError("boom")
        assert box[0] >= 0.0


class TestMemory:
    def test_dense_square(self):
        assert dense_matrix_bytes(10) == 10 * 10 * 4

    def test_dense_rectangular_and_itemsize(self):
        assert dense_matrix_bytes(3, 5, itemsize=8) == 120

    def test_dense_negative_raises(self):
        with pytest.raises(ValueError):
            dense_matrix_bytes(-1)

    def test_block_diagonal_equals_sum_of_squares(self):
        assert block_diagonal_bytes([2, 3]) == (4 + 9) * 4

    def test_block_diagonal_never_exceeds_dense(self):
        sizes = [5, 7, 3]
        assert block_diagonal_bytes(sizes) <= dense_matrix_bytes(sum(sizes))

    def test_sparse_csr_formula(self):
        # 10 rows, 20 nnz: 20*(4+4) values+indices, 11*4 indptr.
        assert sparse_matrix_bytes(10, 20) == 20 * 8 + 11 * 4

    def test_ledger_totals_and_peak(self):
        led = MemoryLedger()
        led.charge("a", 100)
        led.charge("a", 50)
        led.charge("b", 120)
        assert led.total == 270
        assert led.peak == 150

    def test_ledger_rejects_negative(self):
        with pytest.raises(ValueError):
            MemoryLedger().charge("a", -1)

    def test_empty_ledger(self):
        led = MemoryLedger()
        assert led.total == 0 and led.peak == 0

    @pytest.mark.parametrize("outer", [False, True])
    def test_traced_peak_counts_only_the_call(self, outer):
        """An outer trace keeps running, and what it held before the call
        is not charged to the call."""
        import tracemalloc

        if outer:
            tracemalloc.start()
        try:
            held = np.ones(1 << 20) if outer else None  # 8 MiB traced before the call
            vec, peak = traced_peak(lambda: np.ones(1 << 17))  # 1 MiB
            assert vec.nbytes <= peak < 2 * vec.nbytes
            assert tracemalloc.is_tracing() == outer
            del held
        finally:
            if outer:
                tracemalloc.stop()


class TestValidation:
    def test_check_2d_accepts_lists(self):
        out = check_2d([[1, 2], [3, 4]])
        assert out.shape == (2, 2) and out.dtype == np.float64

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((0, 2)), np.zeros((2, 0))])
    def test_check_2d_rejects_bad_shapes(self, bad):
        with pytest.raises(ValueError):
            check_2d(bad)

    def test_check_2d_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            check_2d([[1.0, np.nan]])

    def test_check_2d_names_offending_columns(self):
        X = np.ones((4, 5))
        X[1, 2] = np.nan
        X[3, 4] = np.inf
        with pytest.raises(ValueError, match=r"column\(s\) \[2, 4\]"):
            check_2d(X)

    def test_check_2d_truncates_long_column_lists(self):
        X = np.full((2, 12), np.nan)
        with pytest.raises(ValueError, match=r"\[0, 1, 2, 3, 4, 5, 6, 7, \.\.\.\]"):
            check_2d(X)

    def test_check_2d_uses_caller_name(self):
        with pytest.raises(ValueError, match="features contains"):
            check_2d([[np.inf]], name="features")

    def test_check_2d_ensure_finite_off(self):
        out = check_2d([[np.nan, 1.0]], ensure_finite=False)
        assert np.isnan(out[0, 0])

    def test_check_square(self):
        assert check_square(np.eye(3)).shape == (3, 3)
        with pytest.raises(ValueError):
            check_square(np.zeros((2, 3)))

    def test_check_labels_coerces_integral_floats(self):
        out = check_labels(np.array([0.0, 1.0, 2.0]))
        assert out.dtype == np.int64

    def test_check_labels_rejects_fractional(self):
        with pytest.raises(ValueError):
            check_labels(np.array([0.5, 1.0]))

    def test_check_labels_length(self):
        with pytest.raises(ValueError):
            check_labels([0, 1], n_samples=3)

    def test_check_positive(self):
        assert check_positive(1.5) == 1.5
        with pytest.raises(ValueError):
            check_positive(0.0)
        assert check_positive(0.0, strict=False) == 0.0
