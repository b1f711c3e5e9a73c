"""Tests for the out-of-sample assignment plane (`repro.serving`)."""

import numpy as np
import pytest

from repro.core import DASC, DASCConfig
from repro.core.streaming import StreamingDASC
from repro.data import make_blobs
from repro.mapreduce.storage import (
    ChaosStore,
    CorruptObjectError,
    RetryPolicy,
    S3Store,
    StorageFaultPolicy,
)
from repro.lsh.hamming import hamming_distance
from repro.observability import Tracer, use_tracer
from repro.serving import (
    ROUTE_EXACT,
    ROUTE_FALLBACK,
    ROUTE_NEAR,
    ROUTE_NEAREST,
    AssignmentService,
    DASCModel,
)
from repro.serving.model import MODEL_FORMAT_VERSION


@pytest.fixture(scope="module")
def fitted(blobs_small):
    """A fitted batch estimator, its labels, and the exported model."""
    X, _ = blobs_small
    est = DASC(4, config=DASCConfig(n_bits=4, seed=0))
    labels = est.fit_predict(X)
    return X, labels, est.export_model(X)


class TestExportGuards:
    def test_export_before_fit(self):
        with pytest.raises(RuntimeError, match="fit"):
            DASC(4, config=DASCConfig(seed=0)).export_model(np.ones((5, 2)))

    def test_export_row_count_mismatch(self, blobs_small):
        X, _ = blobs_small
        est = DASC(4, config=DASCConfig(n_bits=4, seed=0))
        est.fit_predict(X)
        with pytest.raises(ValueError, match="rows"):
            est.export_model(X[:10])

    def test_export_wrong_matrix(self, blobs_small):
        X, _ = blobs_small
        est = DASC(4, config=DASCConfig(n_bits=4, seed=0))
        est.fit_predict(X)
        with pytest.raises(ValueError, match="hash"):
            est.export_model(X + 0.5)

    def test_streaming_export_before_finalize(self, blobs_small):
        X, _ = blobs_small
        sd = StreamingDASC(4, config=DASCConfig(seed=0)).calibrate(X)
        sd.partial_fit(X)
        with pytest.raises(RuntimeError, match="finalize"):
            sd.export_model()

    def test_streaming_export_after_more_chunks(self, blobs_small):
        X, _ = blobs_small
        sd = StreamingDASC(4, config=DASCConfig(seed=0)).calibrate(X)
        sd.partial_fit(X[:200]).finalize()
        sd.partial_fit(X[200:])
        with pytest.raises(RuntimeError, match="finalize"):
            sd.export_model()


class TestSelfConsistency:
    def test_batch_training_points_reproduce_fit_labels(self, fitted):
        """The contract: a training point routes exact and gets its fit
        label back bit-identically."""
        X, labels, model = fitted
        assigned, details = model.assign(X, return_details=True)
        assert (details["methods"] == ROUTE_EXACT).all()
        assert np.array_equal(assigned, labels)

    def test_streaming_training_points_reproduce_finalize_labels(self, blobs_small):
        X, _ = blobs_small
        sd = StreamingDASC(4, config=DASCConfig(n_bits=4, seed=0)).calibrate(X)
        for start in range(0, X.shape[0], 64):
            sd.partial_fit(X[start : start + 64])
        labels = sd.finalize()
        model = sd.export_model()
        assigned, details = model.assign(X, return_details=True)
        assert (details["methods"] == ROUTE_EXACT).all()
        assert np.array_equal(assigned, labels)

    def test_process_pool_fit_exports_fit_labels(self, blobs_small):
        """The exported artifacts come back from worker processes."""
        X, _ = blobs_small
        est = DASC(4, config=DASCConfig(n_bits=4, seed=0, n_jobs=2))
        labels = est.fit_predict(X)
        assigned, details = est.export_model(X).assign(X, return_details=True)
        assert (details["methods"] == ROUTE_EXACT).all()
        assert np.array_equal(assigned, labels)

    def test_export_does_no_spectral_work(self, blobs_small, monkeypatch):
        """Export reads the fit's per-bucket artifacts instead of re-solving."""
        import sys

        from repro.spectral.eigen import top_eigenvectors
        from repro.spectral.kmeans import KMeans

        X, _ = blobs_small
        est = DASC(4, config=DASCConfig(n_bits=4, seed=0))
        labels = est.fit_predict(X)
        sd = StreamingDASC(4, config=DASCConfig(n_bits=4, seed=0)).calibrate(X)
        sd.partial_fit(X)
        stream_labels = sd.finalize()

        def boom(*args, **kwargs):
            raise AssertionError("export_model ran spectral work")

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "top_eigenvectors", None) is top_eigenvectors:
                monkeypatch.setattr(module, "top_eigenvectors", boom)
        monkeypatch.setattr(KMeans, "fit", boom)
        for model, expected in ((est.export_model(X), labels), (sd.export_model(), stream_labels)):
            assigned, details = model.assign(X, return_details=True)
            assert (details["methods"] == ROUTE_EXACT).all()
            assert np.array_equal(assigned, expected)

    def test_jittered_queries_mostly_agree(self, fitted, rng):
        X, labels, model = fitted
        jittered = X + rng.normal(scale=0.01, size=X.shape)
        assigned = model.assign(jittered)
        assert (assigned == labels).mean() > 0.95


class TestRoutingLadder:
    def test_exact_for_table_signatures(self, fitted):
        _, _, model = fitted
        ids, methods = model.route(model.table_signatures)
        assert (methods == ROUTE_EXACT).all()
        assert np.array_equal(ids, model.table_buckets)

    def test_near_for_one_bit_miss(self, fitted):
        _, _, model = fitted
        table = set(model.table_signatures.tolist())
        n_bits = model.meta["n_bits"]
        probe = None
        for bit in range(n_bits):
            cand = np.uint64(model.table_signatures[0]) ^ np.uint64(1 << bit)
            if int(cand) not in table:
                probe = cand
                break
        assert probe is not None, "table saturates the signature space"
        ids, methods = model.route(np.array([probe], dtype=np.uint64))
        assert methods[0] == ROUTE_NEAR
        assert ids[0] >= 0

    def test_nearest_for_distant_signature(self, fitted):
        _, _, model = fitted
        n_bits = model.meta["n_bits"]
        # Probe every signature for one at Hamming distance >= 2 from the
        # whole table; with 2^n_bits codes and a sparse table one exists.
        probe = None
        for cand in range(1 << n_bits):
            d = hamming_distance(
                np.uint64(cand), model.table_signatures
            )
            if int(np.min(d)) >= 2:
                probe = np.uint64(cand)
                break
        assert probe is not None, "table too dense for a distant probe"
        ids, methods = model.route(np.array([probe], dtype=np.uint64))
        assert methods[0] == ROUTE_NEAREST
        assert ids[0] >= 0

    def test_max_route_distance_gates_to_fallback(self, fitted):
        X, _, model = fitted
        table = set(model.table_signatures.tolist())
        probe = next(
            np.uint64(c)
            for c in range(1 << model.meta["n_bits"])
            if c not in table
        )
        ids, methods = model.route(
            np.array([probe], dtype=np.uint64), max_route_distance=0
        )
        assert ids[0] == -1
        assert methods[0] == ROUTE_FALLBACK
        # The fallback path still assigns a legal label.
        labels = model.assign(X[:5] + 100.0, max_route_distance=0)
        assert ((labels >= 0) & (labels < model.n_clusters)).all()

    def test_tie_breaks_largest_bucket_then_lowest_signature(self):
        """Pure routing test on a hand-built table: a query one bit from two
        table signatures goes to the larger training bucket; on a size tie,
        to the lower signature."""
        def tiny(sizes):
            return DASCModel(
                hasher=None,
                kernel=None,
                zero_diagonal=False,
                n_clusters=2,
                table_signatures=np.array([0b0001, 0b0010], dtype=np.uint64),
                table_buckets=np.array([0, 1], dtype=np.int64),
                bucket_sizes=np.array(sizes, dtype=np.int64),
                buckets=[None, None],
                global_centroids=np.zeros((1, 2)),
                global_centroid_labels=np.array([0], dtype=np.int64),
            )

        query = np.array([0b0000], dtype=np.uint64)  # distance 1 to both
        ids, methods = tiny([5, 10]).route(query)
        assert methods[0] == ROUTE_NEAR and ids[0] == 1  # larger bucket wins
        ids, _ = tiny([10, 5]).route(query)
        assert ids[0] == 0
        ids, _ = tiny([7, 7]).route(query)
        assert ids[0] == 0  # full tie: lowest signature

    def test_empty_table_routes_fallback(self):
        model = DASCModel(
            hasher=None,
            kernel=None,
            zero_diagonal=False,
            n_clusters=1,
            table_signatures=np.array([], dtype=np.uint64),
            table_buckets=np.array([], dtype=np.int64),
            bucket_sizes=np.array([], dtype=np.int64),
            buckets=[],
            global_centroids=np.zeros((1, 2)),
            global_centroid_labels=np.array([0], dtype=np.int64),
        )
        ids, methods = model.route(np.array([3], dtype=np.uint64))
        assert ids[0] == -1 and methods[0] == ROUTE_FALLBACK

    def test_global_centroids_label_themselves(self, fitted):
        _, _, model = fitted
        C = model.global_centroids
        ids = np.full(C.shape[0], -1, dtype=np.int64)
        methods = np.full(C.shape[0], ROUTE_FALLBACK, dtype=np.int64)
        labels, _ = model.assign_routed(C, ids, methods)
        assert np.array_equal(labels, model.global_centroid_labels)

    def test_feature_mismatch_rejected(self, fitted):
        _, _, model = fitted
        service = AssignmentService(model)
        for assign in (model.assign, service.assign):
            for width in (model.n_features - 1, model.n_features + 1):
                with pytest.raises(ValueError, match="features"):
                    assign(np.ones((3, width)))
        assert service.metrics.counter("serving.requests").value == 0

    def test_wrong_width_into_const_bucket_not_served(self):
        # A "const" bucket answers without reading the query, so the hasher
        # routing a 9-column query there must not be all that checks it.
        X, _ = make_blobs(400, n_clusters=4, n_features=8, seed=3)
        est = DASC(4, seed=0)
        est.fit(X)
        model = est.export_model(X)
        _, details = model.assign(X, return_details=True)
        rows = X[details["bucket_ids"] == 1]
        assert model.buckets[1].mode == "const" and rows.shape[0] == 102
        wide = np.hstack([rows, np.ones((rows.shape[0], 1))])
        service = AssignmentService(model)
        with pytest.raises(ValueError, match="9 features"):
            service.assign(wide)
        assert service.metrics.counter("serving.requests").value == 0


class TestPersistence:
    def test_round_trip_through_store(self, fitted):
        X, labels, model = fitted
        store = S3Store()
        model.save(store, "models/m")
        reloaded = DASCModel.load(store, "models/m")
        assert np.array_equal(reloaded.assign(X), labels)
        assert reloaded.meta == model.meta

    def test_from_payload_rejects_foreign_dict(self):
        with pytest.raises(ValueError, match="not a serialized"):
            DASCModel.from_payload({"format": "something-else"})
        with pytest.raises(ValueError, match="not a serialized"):
            DASCModel.from_payload([1, 2, 3])

    def test_from_payload_rejects_future_version(self, fitted):
        _, _, model = fitted
        payload = model.to_payload()
        payload["version"] = MODEL_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            DASCModel.from_payload(payload)

    def test_bit_flip_quarantined_then_recoverable(self, fitted):
        X, labels, model = fitted
        store = S3Store()
        model.save(store, "models/m")
        blob = bytearray(store._objects["models/m"])
        blob[len(blob) // 2] ^= 0x40
        store._objects["models/m"] = bytes(blob)
        with pytest.raises(CorruptObjectError):
            DASCModel.load(store, "models/m")
        # Damage moved aside; the key is free for a clean republish.
        assert store.exists("models/m.corrupt")
        assert not store.exists("models/m")
        model.save(store, "models/m")
        assert np.array_equal(DASCModel.load(store, "models/m").assign(X), labels)

    def test_torn_write_detected(self, fitted):
        _, _, model = fitted
        store = S3Store()
        model.save(store, "models/m")
        blob = store._objects["models/m"]
        store._objects["models/m"] = blob[: len(blob) // 2]
        with pytest.raises(CorruptObjectError):
            DASCModel.load(store, "models/m")

    def test_quarantine_opt_out_leaves_bytes(self, fitted):
        _, _, model = fitted
        store = S3Store()
        model.save(store, "models/m")
        blob = bytearray(store._objects["models/m"])
        blob[len(blob) // 2] ^= 0x01
        store._objects["models/m"] = bytes(blob)
        with pytest.raises(CorruptObjectError):
            DASCModel.load(store, "models/m", quarantine=False)
        assert store.exists("models/m")
        assert not store.exists("models/m.corrupt")

    def test_survives_chaos_store(self, fitted):
        X, labels, model = fitted
        chaos = ChaosStore(
            policy=StorageFaultPolicy(error_rate=0.2, throttle_rate=0.1, seed=11)
        )
        retry = RetryPolicy(max_attempts=16, deadline=60.0)
        model.save(chaos, "models/m", retry=retry)
        reloaded = DASCModel.load(chaos, "models/m", retry=retry)
        assert np.array_equal(reloaded.assign(X), labels)


class TestAssignmentService:
    def test_batching_equivalent_to_direct_assign(self, fitted):
        X, labels, model = fitted
        for batch_size in (32, 1000):
            service = AssignmentService(model, batch_size=batch_size)
            assert np.array_equal(service.assign(X), labels)

    def test_invalid_parameters(self, fitted):
        _, _, model = fitted
        with pytest.raises(ValueError, match="batch_size"):
            AssignmentService(model, batch_size=0)
        with pytest.raises(ValueError, match="capacity"):
            AssignmentService(model, cache_size=-1)

    def test_route_cache_hits_on_repeat_traffic(self, fitted):
        X, _, model = fitted
        service = AssignmentService(model, batch_size=64)
        service.assign(X)
        mix_first = service.route_mix()
        assert mix_first["cache_misses"] > 0
        service.assign(X)
        mix_second = service.route_mix()
        assert mix_second["cache_hits"] - mix_first["cache_hits"] == X.shape[0]

    def test_cache_disabled(self, fitted):
        X, labels, model = fitted
        service = AssignmentService(model, cache_size=0)
        assert np.array_equal(service.assign(X), labels)
        assert np.array_equal(service.assign(X), labels)
        mix = service.route_mix()
        assert mix["cache_entries"] == 0
        assert mix["cache_hits"] == 0

    def test_metrics_account_for_every_request(self, fitted):
        X, _, model = fitted
        service = AssignmentService(model, batch_size=100)
        service.assign(X)
        summary = service.latency_summary()
        assert summary["requests"] == X.shape[0]
        assert summary["batches"] == -(-X.shape[0] // 100)
        assert summary["p50_s"] is not None and summary["p50_s"] >= 0
        assert summary["p99_s"] >= summary["p50_s"] - 1e-12
        assert summary["throughput_pts_per_s"] > 0
        mix = service.route_mix()
        routed = sum(mix[name] for name in ("exact", "near", "nearest", "fallback"))
        assert routed == X.shape[0]

    def test_from_store(self, fitted):
        X, labels, model = fitted
        store = S3Store()
        model.save(store, "models/m")
        service = AssignmentService.from_store(store, "models/m", batch_size=128)
        assert np.array_equal(service.assign(X), labels)

    def test_each_micro_batch_traced_as_a_span(self, fitted):
        X, labels, model = fitted
        tracer = Tracer()
        with use_tracer(tracer):
            assert np.array_equal(AssignmentService(model, batch_size=150).assign(X), labels)
        spans = [r for r in tracer.sink.records if r["name"] == "serving.batch"]
        assert all(r["type"] == "span" for r in spans)
        assert [r["attributes"]["n_points"] for r in spans] == [150, 150, X.shape[0] - 300]
