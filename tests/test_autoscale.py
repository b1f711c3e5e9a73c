"""Autoscaling plane: primitives, policies, flow integration, drain chaos.

Four layers of the DESIGN.md §15 contract:

* **cluster/HDFS primitives** — ``add_nodes`` / ``decommission_nodes``
  report their overheads and run the drain protocol (retiring nodes'
  blocks re-replicate onto live survivors before removal);
* **signals + policy** — :class:`PhaseSignals` derives the scheduling
  signals the way the observability plane does, and
  :class:`TargetMakespan` maps them to decisions (it grows toward the SLO
  but never past an indivisible dominant task, and sheds idle nodes);
* **flow integration** — an autoscaled DASC flow reproduces the static
  run's labels/counters bit-identically, charges its overhead to the
  makespan, folds ``autoscale.*`` events into the fault ledger, and a
  crashed driver resumes by replaying the checkpointed schedule;
* **chaos interaction** — a node kill racing a decommission drain: the
  dead retiree stops serving as a copy source but every split survives on
  live replicas, and a faulty autoscaled run still matches the clean
  static labels bit-for-bit.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import DASCConfig
from repro.dasc_mr.driver import DistributedDASC
from repro.data import make_blobs
from repro.mapreduce import (
    Autoscaler,
    ElasticMapReduce,
    FaultyEngine,
    PhaseSignals,
    ReplicaUnavailableError,
    ScaleDecision,
    SimulatedCluster,
    SimulatedHDFS,
    TargetMakespan,
)
from repro.mapreduce.autoscale import AutoscalerState
from repro.mapreduce.faults import NodeFailurePolicy
from repro.observability import read_trace, trace_to
from repro.observability.report import fault_summary


# -- cluster scale primitives ------------------------------------------------

class TestClusterPrimitives:
    def test_add_nodes_reports_ids_and_cold_start(self):
        cluster = SimulatedCluster(2)
        report = cluster.add_nodes(3, cold_start=7.5)
        assert cluster.n_nodes == 5
        assert report.added == (2, 3, 4)
        assert report.cold_start == 7.5
        assert report.overhead == 7.5
        assert report.blocks_moved == 0

    def test_decommission_removes_top_ids(self):
        cluster = SimulatedCluster(5)
        report = cluster.decommission_nodes(2)
        assert cluster.n_nodes == 3
        assert report.removed == (3, 4)
        assert report.drain_cost == 0.0

    def test_decommission_must_leave_a_node(self):
        cluster = SimulatedCluster(3)
        with pytest.raises(ValueError, match="at least one node must survive"):
            cluster.decommission_nodes(3)

    def test_drain_cost_charged_per_block(self):
        fs = SimulatedHDFS(4, replication=2, default_split_size=8)
        fs.write("data", list(range(64)))
        cluster = SimulatedCluster(4)
        report = cluster.decommission_nodes(1, fs=fs, drain_cost_per_block=2.5)
        assert report.blocks_moved > 0
        assert report.drain_cost == 2.5 * report.blocks_moved


# -- HDFS drain protocol -----------------------------------------------------

class TestHdfsDrain:
    def _splits_on(self, fs, path):
        stored = fs._files[path]
        return [stored.placements[s] for s in sorted(stored.placements)]

    def test_add_nodes_recovers_replication(self):
        fs = SimulatedHDFS(2, replication=3)
        assert fs.replication == 2  # clipped by the small pool
        assert fs.add_nodes(2) == (2, 3)
        assert fs.n_nodes == 4
        assert fs.replication == 3

    def test_decommission_re_replicates_before_removal(self):
        fs = SimulatedHDFS(5, replication=2, default_split_size=4)
        data = list(range(40))
        fs.write("data", data)
        moved = fs.decommission_nodes(3, 4)
        assert fs.n_nodes == 3
        assert moved > 0
        for placements in self._splits_on(fs, "data"):
            assert placements, "split lost all replicas in a planned drain"
            assert all(n < 3 for n in placements)
        assert fs.read("data") == data

    def test_decommission_requires_top_contiguous_ids(self):
        fs = SimulatedHDFS(4, replication=2)
        fs.write("data", list(range(8)))
        with pytest.raises(ValueError, match="highest-numbered"):
            fs.decommission_nodes(1)
        with pytest.raises(ValueError, match="unknown datanodes"):
            fs.decommission_nodes(9)

    def test_decommission_all_refused(self):
        fs = SimulatedHDFS(2, replication=1)
        with pytest.raises(ValueError, match="cannot decommission every datanode"):
            fs.decommission_nodes(0, 1)

    def test_kill_racing_drain_falls_back_to_live_replicas(self):
        """Satellite 3: a retiring node dies mid-drain; its blocks survive.

        The dead retiree cannot serve as a copy source, but every split
        keeps at least one live replica among the survivors, so the drain
        completes and all data remains readable.
        """
        fs = SimulatedHDFS(4, replication=2, default_split_size=4)
        data = list(range(32))
        fs.write("data", data)
        fs.mark_dead(3)  # the kill lands while node 3 is draining
        moved = fs.decommission_nodes(2, 3)
        assert fs.n_nodes == 2
        assert moved > 0
        for placements in self._splits_on(fs, "data"):
            assert all(n < 2 for n in placements)
        assert fs.read("data") == data

    def test_drain_with_no_live_holder_surfaces_loss(self):
        fs = SimulatedHDFS(3, replication=1, default_split_size=4)
        fs.write("data", list(range(12)))
        stored = fs._files["data"]
        # Find a split homed solely on the retiring node and kill it: the
        # drain has nothing to copy from and must say so.
        victim = next(s for s, p in stored.placements.items() if p == (2,))
        fs.mark_dead(2)
        with pytest.raises(ReplicaUnavailableError):
            fs.decommission_nodes(2)
        assert victim in stored.placements  # nothing silently dropped


# -- signals -----------------------------------------------------------------

def _stats(per_slot, n_tasks=None, utilization=None):
    total = float(sum(per_slot))
    critical = max(per_slot) if per_slot else 0.0
    return SimpleNamespace(
        per_slot_cost=list(per_slot),
        n_tasks=n_tasks if n_tasks is not None else len(per_slot),
        makespan=critical,
        total_cost=total,
        utilization=(
            utilization
            if utilization is not None
            else (total / (critical * len(per_slot)) if critical else 1.0)
        ),
    )


class TestPhaseSignals:
    def test_from_stats_derives_scheduling_signals(self):
        signals = PhaseSignals.from_stats(
            "t", "map", _stats([4.0, 2.0, 0.0]), pending_costs=[5.0, 1.0], pending_phase="reduce"
        )
        assert signals.critical_path == 4.0
        assert signals.slack == (4.0 - 4.0) + (4.0 - 2.0) + (4.0 - 0.0)
        assert signals.straggler_ratio == 4.0 / 2.0
        assert signals.pending_tasks == 2
        assert signals.pending_cost == 6.0
        assert signals.max_pending_cost == 5.0
        assert signals.pending_phase == "reduce"

    def test_empty_stats_degenerate_defaults(self):
        signals = PhaseSignals.from_stats("t", "map", _stats([]))
        assert signals.critical_path == 0.0
        assert signals.straggler_ratio == 1.0
        assert signals.pending_tasks == 0


def _state(n_nodes, *, elapsed=0.0, node_seconds=0.0, cold_start=0.0):
    return AutoscalerState(
        n_nodes=n_nodes,
        map_slots_per_node=4,
        reduce_slots_per_node=2,
        elapsed=elapsed,
        node_seconds=node_seconds,
        overhead=0.0,
        cold_start=cold_start,
    )


# -- policies ----------------------------------------------------------------

class TestPolicies:
    def test_scale_decision_validation(self):
        with pytest.raises(ValueError, match="action"):
            ScaleDecision("sideways")
        with pytest.raises(ValueError, match="delta"):
            ScaleDecision("up", delta=0)

    def test_target_makespan_scales_up_for_balanced_queue(self):
        # 64 unit tasks on 2 nodes x 2 reduce slots project 16s against a
        # 4s budget; the policy grows to the smallest sufficient size.
        signals = PhaseSignals.from_stats(
            "t", "map", _stats([1.0]), pending_costs=[1.0] * 64, pending_phase="reduce"
        )
        policy = TargetMakespan(target=4.0, max_nodes=32, headroom=1.0)
        decision = policy.decide(signals, _state(2))
        assert decision.action == "up"
        assert 2 + decision.delta == math.ceil(64 / (2 * 4.0))

    def test_target_makespan_holds_on_indivisible_dominant_task(self):
        # One 100s task cannot finish faster than 100s on any cluster;
        # scaling up buys nothing, so the policy pins at max_nodes only if
        # that helps — here it already runs at the bound, so it holds.
        signals = PhaseSignals.from_stats(
            "t", "map", _stats([1.0]), pending_costs=[100.0], pending_phase="reduce"
        )
        policy = TargetMakespan(target=10.0, max_nodes=4, headroom=1.0)
        decision = policy.decide(signals, _state(4))
        assert decision.action == "hold"

    def test_target_makespan_charges_cold_start_to_budget(self):
        signals = PhaseSignals.from_stats(
            "t", "map", _stats([1.0]), pending_costs=[1.0] * 64, pending_phase="reduce"
        )
        policy = TargetMakespan(target=4.0, max_nodes=32, headroom=1.0)
        cheap = policy.decide(signals, _state(2, cold_start=0.0))
        costly = policy.decide(signals, _state(2, cold_start=2.0))
        assert costly.action == cheap.action == "up"
        assert costly.delta > cheap.delta  # less budget left -> more nodes

    def test_target_makespan_scales_down_when_idle(self):
        signals = PhaseSignals.from_stats(
            "t",
            "map",
            _stats([8.0, 0.0, 0.0, 0.0], utilization=0.25),
            pending_costs=[1.0, 1.0],
            pending_phase="reduce",
        )
        policy = TargetMakespan(target=100.0, max_nodes=32, headroom=1.0)
        decision = policy.decide(signals, _state(8))
        assert decision.action == "down"
        assert 8 - decision.delta >= policy.min_nodes

    def test_target_makespan_holds_without_queue(self):
        signals = PhaseSignals(trigger="t", phase="step")
        assert TargetMakespan(target=5.0).decide(signals, _state(4)).action == "hold"


# -- flow integration --------------------------------------------------------

def balanced_config():
    """Merging disabled: stage 2 keeps ~17 near-equal buckets."""
    return DASCConfig(
        n_clusters=24, n_bits=7, min_shared_bits=7, min_bucket_size=10, seed=0
    )


@pytest.fixture(scope="module")
def balanced_blobs():
    X, _ = make_blobs(2048, n_clusters=24, n_features=8, cluster_std=0.01, seed=0)
    return X


@pytest.fixture(scope="module")
def static_run(balanced_blobs):
    return DistributedDASC(config=balanced_config(), n_nodes=2).run(balanced_blobs)


def target_scaler(static_run, **kwargs):
    policy = TargetMakespan(
        target=static_run.stage_makespans["spectral"] / 4.0, max_nodes=16
    )
    kwargs.setdefault("cold_start", static_run.stage_makespans["spectral"] * 0.02)
    return Autoscaler(policy, **kwargs)


class TestFlowIntegration:
    def test_autoscaled_run_bit_identical_and_faster(self, balanced_blobs, static_run):
        scaler = target_scaler(static_run)
        auto = DistributedDASC(
            config=balanced_config(), n_nodes=2, autoscaler=scaler
        ).run(balanced_blobs)

        assert np.array_equal(static_run.labels, auto.labels)
        assert static_run.counters == auto.counters
        assert any(action == "up" for _, action, _, _ in scaler.schedule())
        remaining_static = static_run.stage_makespans["spectral"]
        remaining_auto = auto.stage_makespans["spectral"] + scaler.overhead
        assert remaining_static / remaining_auto >= 1.5

    def test_overhead_charged_to_flow_makespan(self, balanced_blobs, static_run):
        scaler = target_scaler(static_run)
        auto = DistributedDASC(
            config=balanced_config(), n_nodes=2, autoscaler=scaler
        ).run(balanced_blobs)
        assert scaler.overhead > 0
        stage_total = sum(auto.stage_makespans.values())
        assert auto.makespan == pytest.approx(stage_total + scaler.overhead)

    def test_decision_points_fire_at_stable_triggers(self, balanced_blobs, static_run):
        scaler = target_scaler(static_run)
        DistributedDASC(config=balanced_config(), n_nodes=2, autoscaler=scaler).run(
            balanced_blobs
        )
        triggers = [t for t, _, _, _ in scaler.schedule()]
        assert "step-000:dasc-stage1-lsh:end" in triggers
        assert "step-002:dasc-stage2-spectral#1:between-phases" in triggers
        assert triggers == sorted(triggers)  # stable ids order the trajectory

    def test_static_policy_matches_no_autoscaler(self, balanced_blobs, static_run):
        # A target 10x the static makespan never needs growth, and a zero
        # utilization floor never sheds: the attached scaler only holds.
        policy = TargetMakespan(
            target=10 * static_run.makespan, scale_down_utilization=0.0
        )
        scaler = Autoscaler(policy, cold_start=123.0)
        run = DistributedDASC(
            config=balanced_config(), n_nodes=2, autoscaler=scaler
        ).run(balanced_blobs)
        assert np.array_equal(static_run.labels, run.labels)
        assert run.counters == static_run.counters
        assert run.makespan == static_run.makespan  # holds charge nothing
        assert scaler.overhead == 0.0
        assert all(action == "hold" for _, action, _, _ in scaler.schedule())

    def test_crash_resume_replays_schedule(self, balanced_blobs, static_run):
        scaler = target_scaler(static_run)
        full = DistributedDASC(
            config=balanced_config(), n_nodes=2, autoscaler=scaler
        ).run(balanced_blobs)

        replay_scaler = target_scaler(static_run)
        crashed = DistributedDASC(
            config=balanced_config(), n_nodes=2, autoscaler=replay_scaler
        )
        flow_id = crashed.submit(balanced_blobs)
        crashed.emr.run_job_flow(flow_id, max_steps=2)
        assert len(replay_scaler.schedule()) < len(scaler.schedule())
        resumed = crashed.resume(flow_id)

        assert resumed.resumed_steps
        assert replay_scaler.schedule() == scaler.schedule()
        assert np.array_equal(full.labels, resumed.labels)
        assert resumed.makespan == full.makespan
        # the replayed ledger matches the live one entry for entry
        assert replay_scaler.decisions == scaler.decisions

    def test_trace_ledger_folds_autoscale_events(
        self, balanced_blobs, static_run, tmp_path
    ):
        path = tmp_path / "autoscale.jsonl"
        scaler = target_scaler(static_run)
        with trace_to(str(path)):
            DistributedDASC(
                config=balanced_config(), n_nodes=2, autoscaler=scaler
            ).run(balanced_blobs)
        records = read_trace(str(path))

        faults = fault_summary(records)
        kinds = set(faults["by_kind"])
        assert "autoscale.decision" in kinds
        assert "autoscale.cold_start" in kinds
        assert faults["wasted_cost"] == pytest.approx(scaler.overhead)

        triggers = [
            r["attributes"]["trigger"]
            for r in records
            if r.get("type") == "event" and r.get("name") == "autoscale.decision"
        ]
        assert triggers == [t for t, _, _, _ in scaler.schedule()]

    def test_flow_status_reports_current_size(self, balanced_blobs, static_run):
        emr = ElasticMapReduce()
        scaler = target_scaler(static_run)
        dasc = DistributedDASC(
            config=balanced_config(), n_nodes=2, emr=emr, autoscaler=scaler
        )
        flow_id = dasc.submit(balanced_blobs)
        emr.run_job_flow(flow_id)
        status = emr.flow_status(flow_id)
        assert status["n_nodes"] == 2
        assert status["n_nodes_current"] == scaler.summary()["final_nodes"] > 2

    def test_one_autoscaler_refuses_two_flows(self, balanced_blobs, static_run):
        emr = ElasticMapReduce()
        scaler = target_scaler(static_run)
        _, flow_a = emr.create_job_flow(2, autoscaler=scaler)
        _, flow_b = emr.create_job_flow(2, autoscaler=scaler)
        scaler.bind(flow_a)
        with pytest.raises(RuntimeError, match="exactly one JobFlow"):
            scaler.bind(flow_b)


# -- chaos interaction: kills racing drains in a full flow -------------------

class _FaultyAutoscaledEMR(ElasticMapReduce):
    """EMR whose flows run node-kill fault injection under an autoscaler."""

    def __init__(self, node_policy, **kwargs):
        super().__init__(**kwargs)
        self._node_policy = node_policy

    def create_job_flow(self, n_nodes, *, split_size=1024, checkpoint=True, autoscaler=None):
        flow_id, flow = super().create_job_flow(
            n_nodes, split_size=split_size, checkpoint=checkpoint, autoscaler=autoscaler
        )
        flow.engine = FaultyEngine(flow.engine.cluster, node_policy=self._node_policy)
        return flow_id, flow


class TestChaosInteraction:
    def test_node_kill_with_scale_down_keeps_labels_identical(self, blobs_small):
        """A node kill racing a scale-down drain never changes results.

        A TargetMakespan autoscaler with a target it cannot miss and
        a 0.95 utilization floor sheds idle nodes before stage 2's reduce
        phase (running the HDFS drain protocol) while a NodeFailurePolicy
        kills nodes inside phases. Labels must match the clean static run
        bit-for-bit.
        """
        X, _ = blobs_small
        clean = DistributedDASC(4, n_nodes=6, config=DASCConfig(seed=0)).run(X)

        scaler = Autoscaler(
            TargetMakespan(target=1e12, min_nodes=2, scale_down_utilization=0.95),
            drain_cost_per_block=1.0,
        )
        emr = _FaultyAutoscaledEMR(NodeFailurePolicy(kills=((0, 5, 0.5), (2, 4, 0.4))))
        faulty = DistributedDASC(
            4, n_nodes=6, config=DASCConfig(seed=0), emr=emr, autoscaler=scaler
        ).run(X)

        assert np.array_equal(clean.labels, faulty.labels)
        downs = [entry for entry in scaler.decisions if entry["action"] == "down"]
        assert [d["trigger"] for d in downs] == [
            "step-002:dasc-stage2-spectral#1:between-phases"
        ]
        assert sum(d["blocks_moved"] for d in downs) > 0
        assert scaler.overhead == pytest.approx(
            sum(d["drain_cost"] for d in downs)
        )
