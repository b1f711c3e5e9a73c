"""Unit tests for the storage plane: envelopes, stores, chaos, resilience.

Covers the checksummed envelope format, the S3Store snapshot/diagnostic
semantics, the seeded ChaosStore fault injector, the RetryPolicy backoff
schedule, and the ResilientStore commit protocol.
"""

import numpy as np
import pytest

from repro.mapreduce.storage import (
    ChaosStore,
    CorruptObjectError,
    ENVELOPE_MAGIC,
    NoSuchKeyError,
    ResilientStore,
    RetryPolicy,
    S3Store,
    StorageDeadlineError,
    StorageError,
    StorageFaultPolicy,
    TransientStorageError,
    pack_envelope,
    unpack_envelope,
)
from repro.observability import Tracer, use_tracer


class TestEnvelope:
    def test_round_trip(self):
        obj = {"labels": [1, 2, 3], "arr": np.arange(5), "name": "step"}
        out = unpack_envelope(pack_envelope(obj))
        assert out["labels"] == obj["labels"]
        assert np.array_equal(out["arr"], obj["arr"])

    def test_magic_leads_the_envelope(self):
        assert pack_envelope(0).startswith(ENVELOPE_MAGIC)

    def test_not_bytes(self):
        with pytest.raises(CorruptObjectError) as exc:
            unpack_envelope({"raw": "dict"}, key="k")
        assert exc.value.reason == "not-bytes"
        assert exc.value.key == "k"

    def test_truncated_header(self):
        with pytest.raises(CorruptObjectError) as exc:
            unpack_envelope(pack_envelope("x")[:5])
        assert exc.value.reason == "truncated-header"

    def test_bad_magic(self):
        data = bytearray(pack_envelope("x"))
        data[0] ^= 0xFF
        with pytest.raises(CorruptObjectError) as exc:
            unpack_envelope(bytes(data))
        assert exc.value.reason == "bad-magic"

    def test_unsupported_version(self):
        data = bytearray(pack_envelope("x"))
        data[4] = 99
        with pytest.raises(CorruptObjectError) as exc:
            unpack_envelope(bytes(data))
        assert exc.value.reason == "unsupported-version"

    def test_torn_payload(self):
        data = pack_envelope(list(range(100)))
        with pytest.raises(CorruptObjectError) as exc:
            unpack_envelope(data[:-7])
        assert exc.value.reason == "torn"

    def test_checksum_catches_bit_flip(self):
        data = bytearray(pack_envelope(list(range(100))))
        data[len(data) // 2] ^= 0x01
        with pytest.raises(CorruptObjectError) as exc:
            unpack_envelope(bytes(data))
        assert exc.value.reason == "checksum"

    def test_errors_are_structured_not_bare(self):
        # The acceptance contract: damage never surfaces as EOFError etc.
        for damage in (b"", b"RSE1", pack_envelope("x")[:-1]):
            with pytest.raises(StorageError):
                unpack_envelope(damage)


class TestS3Store:
    def test_put_snapshots_mutable_objects(self):
        # Regression: put used to alias the caller's object, so mutating it
        # after the write silently rewrote the "persisted" copy.
        store = S3Store()
        obj = {"output": [1, 2, 3]}
        store.put("k", obj)
        obj["output"].append(999)
        assert store.get("k") == {"output": [1, 2, 3]}

    def test_get_returns_stored_snapshot_each_time(self):
        store = S3Store()
        store.put("k", [1, 2])
        assert store.get("k") == [1, 2]

    def test_put_snapshots_numpy(self):
        store = S3Store()
        arr = np.arange(4)
        store.put("k", arr)
        arr[0] = 99
        assert store.get("k")[0] == 0

    def test_bytes_stored_as_is(self):
        store = S3Store()
        store.put("k", bytearray(b"abc"))
        assert store.get("k") == b"abc"

    def test_missing_key_is_structured(self):
        store = S3Store()
        store.put("flows/a/checkpoints/step-000", 1)
        store.put("flows/a/checkpoints/step-001", 2)
        store.put("other", 3)
        with pytest.raises(NoSuchKeyError) as exc:
            store.get("flows/a/checkpoints/step-002")
        err = exc.value
        assert isinstance(err, KeyError)  # backward compatible
        assert isinstance(err, StorageError)
        assert err.key == "flows/a/checkpoints/step-002"
        assert "flows/a/checkpoints/step-000" in err.candidates
        assert "step-002" in str(err) and "nearest" in str(err)

    def test_delete_missing_key(self):
        with pytest.raises(NoSuchKeyError):
            S3Store().delete("nope")

    def test_list_keys_and_exists(self):
        store = S3Store()
        store.put("a/1", 1)
        store.put("a/2", 2)
        store.put("b/1", 3)
        assert store.list_keys("a/") == ["a/1", "a/2"]
        assert store.exists("b/1") and not store.exists("b/2")


class TestStorageFaultPolicy:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            StorageFaultPolicy(error_rate=1.0)
        with pytest.raises(ValueError):
            StorageFaultPolicy(corrupt_rate=-0.1)
        with pytest.raises(ValueError):
            StorageFaultPolicy(latency=(2.0, 1.0))
        with pytest.raises(ValueError):
            StorageFaultPolicy(unavailable=((5, 2),))

    def test_same_seed_same_schedule(self):
        def drive(store):
            faults = []
            for i in range(50):
                try:
                    store.put(f"k{i}", bytes(64))
                except TransientStorageError as exc:
                    faults.append((i, exc.code))
            return faults, dict(store.injected)

        policy = dict(error_rate=0.2, throttle_rate=0.1, torn_write_rate=0.2, corrupt_rate=0.1)
        a = drive(ChaosStore(policy=StorageFaultPolicy(seed=3, **policy)))
        b = drive(ChaosStore(policy=StorageFaultPolicy(seed=3, **policy)))
        assert a == b
        assert sum(a[1].values()) > 0  # the schedule actually injected faults

    def test_different_seed_different_schedule(self):
        def drive(seed):
            store = ChaosStore(policy=StorageFaultPolicy(error_rate=0.3, seed=seed))
            out = []
            for i in range(40):
                try:
                    store.put(f"k{i}", b"x")
                    out.append(True)
                except TransientStorageError:
                    out.append(False)
            return out

        assert drive(1) != drive(2)


class TestChaosStore:
    def test_clean_policy_is_transparent(self):
        store = ChaosStore()
        store.put("k", {"a": 1})
        assert store.get("k") == {"a": 1}
        assert store.injected == {}
        assert store.simulated_latency == 0.0

    def test_latency_accumulates_without_sleeping(self):
        store = ChaosStore(policy=StorageFaultPolicy(latency=(0.01, 0.02), seed=0))
        for i in range(10):
            store.put(f"k{i}", b"x")
        assert 0.1 <= store.simulated_latency <= 0.2

    def test_torn_write_promotes_key_with_truncated_payload(self):
        store = ChaosStore(policy=StorageFaultPolicy(torn_write_rate=0.999, seed=0))
        payload = bytes(range(200)) * 4
        store.put("k", payload)
        landed = store.inner.get("k")
        assert 0 < len(landed) < len(payload)
        assert store.injected.get("torn", 0) >= 1

    def test_corrupt_write_flips_one_bit(self):
        store = ChaosStore(policy=StorageFaultPolicy(corrupt_rate=0.999, seed=0))
        payload = bytes(256)
        store.put("k", payload)
        landed = store.inner.get("k")
        assert len(landed) == len(payload)
        diff = [i for i, (a, b) in enumerate(zip(payload, landed)) if a != b]
        assert len(diff) == 1
        assert bin(payload[diff[0]] ^ landed[diff[0]]).count("1") == 1

    def test_damage_draws_consumed_for_non_bytes(self):
        # Non-bytes payloads cannot be torn, but the draws are consumed so
        # fault schedules stay aligned whatever the payload mix.
        store = ChaosStore(policy=StorageFaultPolicy(torn_write_rate=0.999, seed=0))
        store.put("k", {"not": "bytes"})
        assert store.inner.get("k") == {"not": "bytes"}
        assert store.injected.get("torn", 0) == 0

    def test_unavailability_window_counts_get_requests(self):
        store = ChaosStore(policy=StorageFaultPolicy(unavailable=((1, 2),), seed=0))
        store.put("k", b"x")
        assert store.get("k") == b"x"  # get #0: before the window
        for _ in range(2):  # gets #1 and #2: inside the window
            with pytest.raises(TransientStorageError) as exc:
                store.get("k")
            assert exc.value.code == "ServiceUnavailable"
        assert store.get("k") == b"x"  # get #3: window passed
        assert store.injected["unavailable"] == 2

    def test_metadata_ops_stay_clean(self):
        store = ChaosStore(policy=StorageFaultPolicy(error_rate=0.99, seed=0))
        store.inner.put("a/k", b"x")
        for _ in range(20):
            assert store.exists("a/k")
            assert store.list_keys("a/") == ["a/k"]
        assert store.injected == {}


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(deadline=0.0)

    def test_delays_deterministic_and_capped(self):
        from repro.utils.rng import as_rng

        policy = RetryPolicy(max_attempts=8, base_delay=0.1, multiplier=3.0, max_delay=0.5)
        a = policy.delays(as_rng(7))
        b = policy.delays(as_rng(7))
        assert a == b
        assert len(a) == 7  # one delay per retry slot
        assert all(0.0 < d <= 0.5 for d in a)

    def test_zero_jitter_is_pure_exponential(self):
        from repro.utils.rng import as_rng

        policy = RetryPolicy(max_attempts=4, base_delay=0.1, multiplier=2.0, jitter=0.0, max_delay=10.0)
        assert policy.delays(as_rng(0)) == pytest.approx([0.1, 0.2, 0.4])


class _FlakyStore(S3Store):
    """Fails the first ``n_failures`` requests of each op kind."""

    def __init__(self, n_failures: int, ops=("put", "get", "delete")):
        super().__init__()
        self.n_failures = n_failures
        self.ops = ops
        self.calls: dict[str, int] = {}

    def _flake(self, op, key):
        self.calls[op] = self.calls.get(op, 0) + 1
        if op in self.ops and self.calls[op] <= self.n_failures:
            raise TransientStorageError(f"flake #{self.calls[op]}", op=op, key=key)

    def put(self, key, obj):
        self._flake("put", key)
        super().put(key, obj)

    def get(self, key):
        self._flake("get", key)
        return super().get(key)

    def delete(self, key):
        self._flake("delete", key)
        super().delete(key)


class TestResilientStore:
    def test_round_trip_over_plain_store(self):
        store = ResilientStore(S3Store())
        obj = {"labels": np.arange(10), "counters": {"a": 1}}
        store.put("flows/f/checkpoints/step-000", obj)
        out = store.get("flows/f/checkpoints/step-000")
        assert np.array_equal(out["labels"], obj["labels"])
        assert out["counters"] == {"a": 1}
        assert store.backoff_total == 0.0

    def test_stored_bytes_are_an_envelope(self):
        inner = S3Store()
        store = ResilientStore(inner)
        store.put("k", [1, 2, 3])
        raw = inner.get("k")
        assert isinstance(raw, bytes) and raw.startswith(ENVELOPE_MAGIC)
        assert unpack_envelope(raw) == [1, 2, 3]

    def test_tmp_key_cleaned_up_after_commit(self):
        inner = S3Store()
        store = ResilientStore(inner)
        store.put("k", "v")
        assert inner.list_keys() == ["k"]

    def test_wrap_is_idempotent(self):
        inner = S3Store()
        a = ResilientStore.wrap(inner)
        assert ResilientStore.wrap(a) is a
        assert a.inner is inner

    def test_transient_faults_retried_with_simulated_backoff(self):
        store = ResilientStore(_FlakyStore(2), retry=RetryPolicy(max_attempts=6, seed=0))
        tracer = Tracer()
        with use_tracer(tracer):
            store.put("k", "v")
            assert store.get("k") == "v"
        assert store.backoff_total > 0.0
        retries = [r for r in tracer.sink.records if r.get("name") == "storage.retry"]
        assert retries
        assert all(r["attributes"]["wasted_cost"] > 0 for r in retries)

    def test_retry_exhaustion_is_a_deadline_error(self):
        store = ResilientStore(_FlakyStore(100), retry=RetryPolicy(max_attempts=3, seed=0))
        with pytest.raises(StorageDeadlineError) as exc:
            store.put("k", "v")
        assert exc.value.op == "put"
        assert exc.value.attempts == 3
        assert isinstance(exc.value.__cause__, TransientStorageError)

    def test_deadline_cuts_retries_short(self):
        store = ResilientStore(
            _FlakyStore(100),
            retry=RetryPolicy(max_attempts=50, base_delay=1.0, max_delay=1.0, jitter=0.0, deadline=2.5),
        )
        with pytest.raises(StorageDeadlineError) as exc:
            store.get("k")
        assert exc.value.attempts < 50
        assert store.backoff_total <= 2.5

    def test_torn_writes_repaired_by_rewrite(self):
        chaos = ChaosStore(policy=StorageFaultPolicy(torn_write_rate=0.4, corrupt_rate=0.2, seed=5))
        store = ResilientStore(chaos, retry=RetryPolicy(max_attempts=16, deadline=120.0, seed=1))
        for i in range(20):
            store.put(f"k{i}", {"i": i, "pad": bytes(128)})
        for i in range(20):
            assert store.get(f"k{i}")["i"] == i
        # The schedule tore/corrupted some attempts; every landed key verified.
        assert chaos.injected.get("torn", 0) + chaos.injected.get("corrupt", 0) > 0

    def test_corrupt_at_rest_not_retried(self):
        inner = S3Store()
        store = ResilientStore(inner)
        store.put("k", list(range(50)))
        damaged = bytearray(inner.get("k"))
        damaged[len(damaged) // 2] ^= 0x10
        inner.put("k", bytes(damaged))
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(CorruptObjectError) as exc:
                store.get("k")
        assert exc.value.reason == "checksum"
        events = [r["name"] for r in tracer.sink.records if r.get("type") == "event"]
        assert events.count("storage.corruption") == 1
        assert "storage.retry" not in events  # at-rest damage is not retried

    def test_missing_key_passes_through_structured(self):
        store = ResilientStore(S3Store())
        with pytest.raises(NoSuchKeyError):
            store.get("nope")
        with pytest.raises(NoSuchKeyError):
            store.delete("nope")

    def test_foreign_bare_keyerror_normalized(self):
        class BareStore(S3Store):
            def get(self, key):
                return self._objects[key]  # raises bare KeyError

        store = ResilientStore(BareStore())
        with pytest.raises(NoSuchKeyError) as exc:
            store.get("missing")
        assert exc.value.key == "missing"

    def test_quarantine_moves_damaged_bytes_aside(self):
        inner = S3Store()
        store = ResilientStore(inner)
        inner.put("k", b"damaged-bytes")
        tracer = Tracer()
        with use_tracer(tracer):
            dest = store.quarantine("k")
        assert dest == "k.corrupt"
        assert not inner.exists("k")
        assert inner.get("k.corrupt") == b"damaged-bytes"
        events = [r["name"] for r in tracer.sink.records if r.get("type") == "event"]
        assert "storage.quarantine" in events

    def test_quarantine_is_idempotent(self):
        store = ResilientStore(S3Store())
        assert store.quarantine("gone") == "gone.corrupt"
        assert not store.inner.exists("gone.corrupt")

    def test_delete_round_trip(self):
        store = ResilientStore(S3Store())
        store.put("k", 1)
        store.delete("k")
        assert not store.exists("k")
