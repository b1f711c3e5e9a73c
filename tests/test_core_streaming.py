"""Tests for the incremental (streaming) DASC."""

import numpy as np
import pytest

from repro.core import DASC, DASCConfig
from repro.core.streaming import StreamingDASC
from repro.metrics import clustering_accuracy, normalized_mutual_info


def chunks_of(X, size):
    return [X[i : i + size] for i in range(0, X.shape[0], size)]


class TestLifecycle:
    def test_partial_fit_before_calibrate(self, blobs_small):
        X, _ = blobs_small
        with pytest.raises(RuntimeError, match="calibrate"):
            StreamingDASC(4).partial_fit(X)

    def test_finalize_before_data(self, blobs_small):
        X, _ = blobs_small
        sd = StreamingDASC(4, config=DASCConfig(seed=0)).calibrate(X[:100])
        with pytest.raises(RuntimeError):
            sd.finalize()

    def test_absorption_counts(self, blobs_small):
        X, _ = blobs_small
        sd = StreamingDASC(4, config=DASCConfig(seed=0)).calibrate(X[:100])
        for chunk in chunks_of(X, 64):
            sd.partial_fit(chunk)
        assert sd.n_absorbed == X.shape[0]
        assert sd.n_buckets >= 1
        assert sd.bucket_sizes().sum() == X.shape[0]


class TestCorrectness:
    def test_recovers_blobs(self, blobs_small):
        X, y = blobs_small
        sd = StreamingDASC(4, config=DASCConfig(seed=0)).calibrate(X)
        for chunk in chunks_of(X, 50):
            sd.partial_fit(chunk)
        labels = sd.finalize()
        assert clustering_accuracy(y, labels) > 0.9

    def test_chunk_size_does_not_change_partition(self, blobs_small):
        """The bucket partition depends only on the data, not the chunking."""
        X, _ = blobs_small
        results = []
        for size in (32, 128, 400):
            sd = StreamingDASC(4, config=DASCConfig(seed=0)).calibrate(X)
            for chunk in chunks_of(X, size):
                sd.partial_fit(chunk)
            results.append(sd.finalize())
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[1], results[2])

    def test_agrees_with_batch_dasc(self, blobs_small):
        """Streaming over one big chunk ~ the batch estimator's partition."""
        X, y = blobs_small
        cfg = DASCConfig(n_bits=4, seed=0)
        sd = StreamingDASC(4, config=cfg).calibrate(X)
        sd.partial_fit(X)
        stream_labels = sd.finalize()
        batch_labels = DASC(4, config=DASCConfig(n_bits=4, seed=0)).fit_predict(X)
        assert normalized_mutual_info(stream_labels, batch_labels) > 0.85

    def test_labels_in_absorption_order(self, blobs_small):
        X, y = blobs_small
        sd = StreamingDASC(4, config=DASCConfig(seed=0)).calibrate(X)
        # Absorb in two chunks; point i of the stream is X[i].
        sd.partial_fit(X[:200])
        sd.partial_fit(X[200:])
        labels = sd.finalize()
        assert labels.shape == (X.shape[0],)
        # Same-cluster ground-truth pairs should mostly share stream labels.
        assert clustering_accuracy(y, labels) > 0.9


class TestValidation:
    def test_finalize_runs_invariant_checks(self, blobs_small, monkeypatch):
        from repro.verify import InvariantViolation

        def reject(*args, **kwargs):
            raise InvariantViolation("spectral.embedding_norm", "rejected", stage="test")

        monkeypatch.setattr("repro.verify.invariants.check_embedding", reject)
        X, _ = blobs_small
        # Two bits leave a 200-point bucket with K_i = 2, so it reaches the eigensolve.
        sd = StreamingDASC(4, config=DASCConfig(n_bits=2, seed=0, validate=True)).calibrate(X)
        sd.partial_fit(X)
        with pytest.raises(InvariantViolation):
            sd.finalize()


class TestVectorizedAbsorbRegression:
    def test_bit_identical_to_per_row_reference(self, blobs_small):
        """The argsort/np.unique grouping in partial_fit must leave the
        bucket store — points, absorption indices, and the finalize labels
        built from them — bit-identical to the per-row append loop it
        replaced."""
        X, _ = blobs_small
        fast = StreamingDASC(4, config=DASCConfig(n_bits=4, seed=0)).calibrate(X)
        ref = StreamingDASC(4, config=DASCConfig(n_bits=4, seed=0)).calibrate(X)
        for chunk in chunks_of(X, 64):
            fast.partial_fit(chunk)
            # Reference: one dict/list append per point, in chunk order.
            sigs = ref._hasher.hash(chunk)
            for i in range(chunk.shape[0]):
                key = int(sigs[i])
                ref._bucket_points[key].append(chunk[i : i + 1])
                ref._bucket_order[key].append(np.array([ref._n_seen + i], dtype=np.int64))
            ref._n_seen += chunk.shape[0]
        assert sorted(fast._bucket_points) == sorted(ref._bucket_points)
        for key in fast._bucket_points:
            assert np.array_equal(
                np.vstack(fast._bucket_points[key]), np.vstack(ref._bucket_points[key])
            )
            assert np.array_equal(
                np.concatenate(fast._bucket_order[key]),
                np.concatenate(ref._bucket_order[key]),
            )
        assert np.array_equal(fast.finalize(), ref.finalize())


class TestMemoryBound:
    def test_peak_block_far_below_full_matrix(self, blobs_medium):
        X, _ = blobs_medium
        sd = StreamingDASC(6, config=DASCConfig(n_bits=6, min_bucket_size=8, seed=0))
        sd.calibrate(X[:256])
        for chunk in chunks_of(X, 100):
            sd.partial_fit(chunk)
        assert 0 < sd.peak_block_bytes() <= 4 * X.shape[0] ** 2
        if sd.n_buckets > 1:
            assert sd.peak_block_bytes() < 4 * X.shape[0] ** 2

    def test_empty_store_peak_zero(self, blobs_small):
        X, _ = blobs_small
        sd = StreamingDASC(4, config=DASCConfig(seed=0)).calibrate(X[:64])
        assert sd.peak_block_bytes() == 0
