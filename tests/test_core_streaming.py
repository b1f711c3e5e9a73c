"""Tests for the incremental (streaming) DASC."""

import zlib

import numpy as np
import pytest

from repro.core import DASC, DASCConfig
from repro.core.streaming import StreamingDASC
from repro.data import make_blobs
from repro.metrics import clustering_accuracy


def chunks_of(X, size):
    return [X[i : i + size] for i in range(0, X.shape[0], size)]


def streamed(X, k, cfg, size):
    """A stream calibrated on ``X`` and fed ``X`` in chunks of ``size``, finalized."""
    sd = StreamingDASC(k, config=cfg).calibrate(X)
    for chunk in chunks_of(X, size):
        sd.partial_fit(chunk)
    sd.finalize()
    return sd


def medium_config(**overrides):
    return DASCConfig(n_bits=8, min_bucket_size=4, seed=0, **overrides)


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
        """Streaming over one big chunk gives the batch estimator's labels."""
        X, y = blobs_small
        cfg = DASCConfig(n_bits=4, seed=0)
        sd = StreamingDASC(4, config=cfg).calibrate(X)
        sd.partial_fit(X)
        stream_labels = sd.finalize()
        batch_labels = DASC(4, config=DASCConfig(n_bits=4, seed=0)).fit_predict(X)
        assert np.array_equal(stream_labels, batch_labels)

    def test_partial_fit_copies_the_chunk(self, blobs_small):
        """A caller may reuse one buffer for every chunk."""
        X, _ = blobs_small
        fresh = streamed(X, 4, DASCConfig(seed=0), 64).labels_
        sd = StreamingDASC(4, config=DASCConfig(seed=0)).calibrate(X)
        buffer = np.empty((64, X.shape[1]))
        for chunk in chunks_of(X, 64):
            view = buffer[: chunk.shape[0]]
            view[:] = chunk
            sd.partial_fit(view)
            view[:] = 0.0
        assert np.array_equal(sd.finalize(), fresh)

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


class TestBatchIdentity:
    """Calibrated on X and fed X in any chunking, the stream is ``DASC.fit(X)``."""

    @pytest.mark.parametrize("size", [1200, 97])
    @pytest.mark.parametrize(
        "allocation, refine",
        [("proportional", True), ("fixed", False), ("eigengap", True)],
    )
    def test_labels_identical_to_batch_dasc(self, blobs_medium, allocation, refine, size):
        X, _ = blobs_medium
        cfg = medium_config(allocation=allocation, refine_to_k=refine)
        batch = DASC(6, config=cfg).fit(X)
        sd = streamed(X, 6, cfg, size)
        assert np.array_equal(sd.labels_, batch.labels_)
        assert sd.n_clusters_ == batch.n_clusters_
        # The size reports describe the buckets finalize clustered.
        sizes = np.sort(batch.buckets_.sizes)[::-1]
        assert sd.n_buckets == batch.buckets_.n_buckets
        assert np.array_equal(sd.bucket_sizes(), sizes)
        assert sd.peak_block_bytes() == 4 * int(sizes[0]) ** 2

    def test_exports_the_batch_model(self, blobs_medium):
        X, _ = blobs_medium
        batch = DASC(6, config=medium_config()).fit(X)
        ours = streamed(X, 6, medium_config(), 97).export_model()
        theirs = batch.export_model(X)
        for name in ("table_signatures", "table_buckets", "bucket_sizes",
                     "global_centroids", "global_centroid_labels"):
            assert np.array_equal(getattr(ours, name), getattr(theirs, name)), name
        assert ours.n_buckets == theirs.n_buckets
        for a, b in zip(ours.buckets, theirs.buckets):
            for field, value in vars(a).items():
                other = vars(b)[field]
                if isinstance(value, np.ndarray):
                    assert np.array_equal(value, other), field
                else:
                    assert value == other, field
        queries = np.random.default_rng(0).uniform(size=(500, X.shape[1]))
        assert np.array_equal(ours.assign(queries), theirs.assign(queries))


class TestSampleCalibrated:
    """Calibrated on a sample, the stream has no batch fit to equal, so its
    results are pinned: ``examples/streaming_dasc.py``'s data, config and
    chunks, calibrated on the first chunk."""

    def test_example_stream_pinned(self):
        X, _ = make_blobs(4000, n_clusters=8, n_features=32, cluster_std=0.04, seed=17)
        cfg = DASCConfig(n_bits=6, min_bucket_size=8, allocation="eigengap", sigma=0.5, seed=17)
        sd = StreamingDASC(8, config=cfg).calibrate(X[:250])
        for chunk in chunks_of(X, 250):
            sd.partial_fit(chunk)
        assert zlib.crc32(sd.finalize().tobytes()) == 527026544
        assert sd.n_clusters_ == 8
        model = sd.export_model()
        assert model.meta["source"] == "streaming"
        # 233 of these route exactly, 59 to a near bucket and 8 to the nearest.
        rng = np.random.default_rng(0)
        queries = np.vstack([
            X[::20] + rng.normal(scale=0.02, size=(200, 32)),
            rng.uniform(X.min(), X.max(), size=(100, 32)),
        ])
        assert zlib.crc32(model.assign(queries).tobytes()) == 1943616356


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

    @pytest.mark.parametrize("check", ["check_buckets", "check_labels_range"])
    def test_finalize_runs_partition_and_label_checks(self, blobs_small, monkeypatch, check):
        """The bucket and final-label checks DASC.fit runs guard finalize too."""
        from repro.verify import InvariantViolation

        def reject(*args, **kwargs):
            raise InvariantViolation(check, "rejected", stage="test")

        monkeypatch.setattr(f"repro.core.dasc.{check}", reject)
        X, _ = blobs_small
        sd = StreamingDASC(4, config=DASCConfig(seed=0, validate=True)).calibrate(X)
        sd.partial_fit(X)
        with pytest.raises(InvariantViolation):
            sd.finalize()


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
