"""Storage-plane chaos tests: the equivalence invariant under injected
storage faults.

The hardened-client contract: under any *survivable* storage-fault
schedule — transient errors, throttling, torn writes, bit flips, bounded
read outages — the distributed pipeline produces labels, buckets,
counters, and makespan bit-identical to the fault-free run (storage faults
never touch engine counters; only trace events and the retry ledger
differ). An unsurvivable schedule surfaces a structured
:class:`StorageError`, never a bare ``KeyError``/``EOFError``, with the
wasted cost itemized in the fault ledger.

The ResilientStore commit protocol makes 4-5 chaos-visible requests per put
attempt, so per-request fault rates compound; schedules here use calm rates
with a generous retry budget (``max_attempts=16``).
"""

import numpy as np
import pytest

from repro.core import DASCConfig
from repro.dasc_mr import DistributedDASC
from repro.mapreduce import (
    ChaosStore,
    ElasticMapReduce,
    RetryPolicy,
    StorageError,
    StorageFaultPolicy,
)
from repro.observability import Tracer, fault_summary, use_tracer

RETRY = dict(max_attempts=16, deadline=120.0)

# Storage-fault schedules swept by the equivalence test. Rates are
# per-request; the commit protocol compounds them ~4-5x per put attempt.
SCHEDULES = {
    "transient-errors": StorageFaultPolicy(error_rate=0.1, throttle_rate=0.05, seed=11),
    "torn-writes": StorageFaultPolicy(torn_write_rate=0.15, seed=12),
    "bit-flips": StorageFaultPolicy(corrupt_rate=0.1, seed=13),
    "latency-only": StorageFaultPolicy(latency=(0.001, 0.01), seed=14),
    "read-outage-window": StorageFaultPolicy(unavailable=((2, 4),), seed=15),
    "everything-at-once": StorageFaultPolicy(
        error_rate=0.1,
        throttle_rate=0.05,
        torn_write_rate=0.1,
        corrupt_rate=0.05,
        latency=(0.001, 0.005),
        seed=16,
    ),
}


def chaos_emr(policy: StorageFaultPolicy, **retry_overrides) -> ElasticMapReduce:
    return ElasticMapReduce(
        store=ChaosStore(policy=policy),
        retry=RetryPolicy(**{**RETRY, **retry_overrides, "seed": policy.seed}),
    )


def run_dasc(X, emr=None):
    return DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=0), emr=emr).run(X)


class TestStorageChaosEquivalence:
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_bit_identical_under_survivable_schedules(self, blobs_small, schedule):
        X, _ = blobs_small
        baseline = run_dasc(X)
        emr = chaos_emr(SCHEDULES[schedule])
        chaotic = run_dasc(X, emr=emr)
        assert np.array_equal(chaotic.labels, baseline.labels)
        assert chaotic.n_clusters == baseline.n_clusters
        assert chaotic.n_buckets == baseline.n_buckets
        # Storage faults never touch engine counters or the cost model:
        # the FULL counter set and makespan match.
        assert chaotic.counters == baseline.counters
        assert chaotic.makespan == baseline.makespan

    @pytest.mark.parametrize("seed_shift", [100, 200, 300])
    def test_equivalence_across_seeds(self, blobs_small, seed_shift):
        X, _ = blobs_small
        baseline = run_dasc(X)
        base = SCHEDULES["everything-at-once"]
        policy = StorageFaultPolicy(**{**base.__dict__, "seed": base.seed + seed_shift})
        chaotic = run_dasc(X, emr=chaos_emr(policy))
        assert np.array_equal(chaotic.labels, baseline.labels)
        assert chaotic.counters == baseline.counters

    def test_faults_actually_injected_and_repaired(self, blobs_small):
        X, _ = blobs_small
        emr = chaos_emr(SCHEDULES["everything-at-once"])
        run_dasc(X, emr=emr)
        chaos = emr.s3  # the raw store the service was built over
        assert isinstance(chaos, ChaosStore)
        assert sum(chaos.injected.values()) > 0
        assert emr.storage.backoff_total > 0.0  # repairs cost simulated backoff


class TestUnsurvivableSchedules:
    def test_permanent_read_outage_is_structured(self, blobs_small):
        X, _ = blobs_small
        emr = chaos_emr(
            StorageFaultPolicy(unavailable=((0, 10**9),), seed=1), max_attempts=4, deadline=5.0
        )
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(StorageError):
                run_dasc(X, emr=emr)
        # Every burned retry is itemized in the fault ledger with its cost.
        ledger = fault_summary(tracer.sink.records)
        assert ledger["by_kind"].get("storage.retry", 0) > 0
        assert ledger["wasted_cost"] > 0.0

    def test_never_a_bare_keyerror(self, blobs_small):
        X, _ = blobs_small
        emr = chaos_emr(
            StorageFaultPolicy(error_rate=0.9, seed=2), max_attempts=2, deadline=1.0
        )
        try:
            run_dasc(X, emr=emr)
        except StorageError:
            pass  # structured — the contract
        except (KeyError, EOFError) as exc:  # pragma: no cover - contract violation
            pytest.fail(f"bare {type(exc).__name__} escaped the storage plane: {exc}")


class TestDamagedCheckpointRecovery:
    def crash_and_damage(self, X, damage):
        """Run two steps, apply ``damage`` to the step-0 checkpoint bytes,
        then resume. Returns (resumed result, emr, flow_id, tracer)."""
        emr = ElasticMapReduce()
        dasc = DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=0), emr=emr)
        flow_id = dasc.submit(X)
        emr.run_job_flow(flow_id, max_steps=2)  # "driver crash"
        key = f"{flow_id}/checkpoints/step-000"
        emr.s3.put(key, damage(bytearray(emr.s3.get(key))))
        tracer = Tracer()
        with use_tracer(tracer):
            resumed = dasc.resume(flow_id)
        return resumed, emr, flow_id, tracer

    def assert_recovered(self, baseline, resumed, emr, flow_id, tracer):
        key = f"{flow_id}/checkpoints/step-000"
        assert np.array_equal(resumed.labels, baseline.labels)
        assert resumed.counters == baseline.counters
        assert emr.s3.exists(key + ".corrupt")  # damaged bytes kept for post-mortem
        assert 0 not in resumed.resumed_steps  # step 0 re-executed, not restored
        ledger = fault_summary(tracer.sink.records)
        assert ledger["by_kind"].get("storage.corruption", 0) == 1
        assert ledger["by_kind"].get("storage.quarantine", 0) == 1
        assert ledger["by_kind"].get("fault.checkpoint_reexecuted", 0) == 1
        assert ledger["wasted_cost"] > 0.0  # the re-executed step's makespan

    def test_bit_flipped_checkpoint_quarantined_and_reexecuted(self, blobs_small):
        X, _ = blobs_small
        baseline = run_dasc(X)

        def flip(data):
            data[len(data) // 2] ^= 0xFF
            return bytes(data)

        resumed, emr, flow_id, tracer = self.crash_and_damage(X, flip)
        self.assert_recovered(baseline, resumed, emr, flow_id, tracer)

    def test_torn_checkpoint_quarantined_and_reexecuted(self, blobs_small):
        X, _ = blobs_small
        baseline = run_dasc(X)
        resumed, emr, flow_id, tracer = self.crash_and_damage(
            X, lambda data: bytes(data[: len(data) // 3])
        )
        self.assert_recovered(baseline, resumed, emr, flow_id, tracer)

    def test_undamaged_resume_still_restores_from_checkpoint(self, blobs_small):
        """Control: without damage the same crash/resume restores step 0."""
        X, _ = blobs_small
        baseline = run_dasc(X)
        resumed, emr, flow_id, _ = self.crash_and_damage(X, lambda data: bytes(data))
        assert np.array_equal(resumed.labels, baseline.labels)
        assert 0 in resumed.resumed_steps
        assert not emr.s3.exists(f"{flow_id}/checkpoints/step-000.corrupt")
