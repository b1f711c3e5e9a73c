"""The distributed DASC driver: the paper's EMR job flow, end to end.

Section 5.1's workflow: upload the dataset to S3, start a job flow whose
first step partitions the data into buckets with LSH, whose second step runs
spectral clustering on individual buckets, and whose final step stores the
results in S3 and terminates. The driver fits the hash parameters (the
global hyperplane/threshold arrays of Algorithm 1), performs the Eq.-6
bucket merge between the stages, and computes the global cluster
allocation.

:class:`DistributedDASC` is numerically equivalent to the in-process
:class:`repro.core.dasc.DASC` (same hashing, bucketing, kernels, spectral
steps and per-bucket seeds, so the labels are identical whenever ``DASC``
does not refine) but executes through the MapReduce engine, yielding the
simulated makespans Table 3 reports for 16/32/64-node clusters.

The driver is crash-recoverable: :meth:`DistributedDASC.submit` provisions
the flow, :meth:`~DistributedDASC.run` executes and collects it, and — if
the driver dies between stages — :meth:`~DistributedDASC.resume` restarts
from the last completed checkpoint (the LSH pass is *not* redone) and
produces byte-identical labels. Degradation ladder on the way down:
per-attempt task retries, node-loss re-execution, speculative backups
(see :mod:`repro.mapreduce.faults`), nearest-neighbour repair for any
unlabelled point, and a structured
:class:`~repro.mapreduce.job.JobFlowError` when retries are exhausted.

The storage boundary is hardened the same way: driver artifacts (the
uploaded input, the collected labels) and every job-flow checkpoint travel
through the :class:`~repro.mapreduce.storage.ResilientStore` client, so
transient S3 faults retry with seeded backoff, torn or bit-flipped
checkpoints are quarantined and their steps re-executed, and an
unsurvivable storage-fault schedule surfaces as a structured
:class:`~repro.mapreduce.storage.StorageError` — never a bare ``KeyError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.allocation import allocate_clusters
from repro.core.buckets import make_buckets
from repro.core.config import DASCConfig
from repro.core.signatures import make_hasher
from repro.dasc_mr.stage1 import make_signature_job
from repro.dasc_mr.stage2 import make_clustering_job
from repro.mapreduce.emr import ElasticMapReduce
from repro.observability import get_tracer
from repro.utils.memory import block_diagonal_bytes
from repro.utils.validation import check_2d
from repro.verify.invariants import (
    check_buckets,
    check_counter_equals,
    check_labels_range,
    validation_enabled,
)

__all__ = ["DistributedResult", "DistributedDASC"]

#: Step the merge action appends dynamically (pruned before re-append so
#: that resuming a crashed flow does not duplicate it).
_STAGE2_STEP = "dasc-stage2-spectral"


@dataclass
class DistributedResult:
    """Outcome of one distributed DASC run.

    Attributes
    ----------
    labels:
        (n,) global cluster assignments.
    n_clusters:
        Number of global clusters produced.
    n_buckets:
        Buckets after merging/folding (the stage-2 parallelism).
    makespan:
        Simulated wall-clock over both MapReduce stages.
    gram_bytes:
        Exact storage of the block-diagonal Gram approximation (Eq. 12).
    n_nodes:
        Cluster size the flow ran on.
    counters:
        Per-stage Hadoop-style counter snapshots.
    stage_makespans:
        ``{"lsh": ..., "spectral": ...}`` per-stage simulated time.
    n_repaired:
        Points that came back unlabelled from stage 2 and were repaired by
        nearest-labelled-neighbour assignment (0 in a healthy run).
    resumed_steps:
        Step indices restored from checkpoints (non-empty only after
        :meth:`DistributedDASC.resume`).
    """

    labels: np.ndarray
    n_clusters: int
    n_buckets: int
    makespan: float
    gram_bytes: int
    n_nodes: int
    counters: dict = field(default_factory=dict)
    stage_makespans: dict = field(default_factory=dict)
    n_repaired: int = 0
    resumed_steps: tuple = ()


class DistributedDASC:
    """DASC as an EMR job flow on a simulated elastic cluster.

    Parameters
    ----------
    n_clusters:
        Global cluster budget K (``None``: the Eq.-15 default).
    n_nodes:
        Cluster size to provision (the paper sweeps 16/32/64).
    config:
        Full :class:`DASCConfig`. ``allocation="eigengap"`` is rejected:
        K_i is fixed from bucket sizes before stage 2. The flow does not run
        ``refine_to_k``, so ``allocation="fixed"`` keeps more than K
        clusters where ``DASC`` merges down to K; whenever ``DASC`` does not
        refine, its labels equal these.
    emr:
        An :class:`ElasticMapReduce` service to provision from (a fresh one
        is created when omitted, so independent runs don't share state).
    split_size:
        Records per HDFS input split (the unit of map parallelism).
    autoscaler:
        Optional :class:`~repro.mapreduce.autoscale.Autoscaler` making the
        provisioned cluster elastic: it resizes between the flow's phases
        and steps (e.g. growing for the reduce-bound spectral stage) and
        checkpoints its decisions so :meth:`resume` replays the identical
        scaling schedule. Labels and counters are unaffected — scaling
        moves only the simulated makespan.
    """

    def __init__(
        self,
        n_clusters: int | None = None,
        *,
        n_nodes: int = 16,
        config: DASCConfig | None = None,
        emr: ElasticMapReduce | None = None,
        split_size: int = 1024,
        autoscaler=None,
    ):
        self.config = replace(config) if config is not None else DASCConfig()
        if n_clusters is not None:
            self.config.n_clusters = n_clusters
        if self.config.allocation == "eigengap":
            raise ValueError(
                "DistributedDASC does not support allocation='eigengap': K_i is "
                "fixed from bucket sizes before stage 2 builds any Gram block"
            )
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        self.n_nodes = int(n_nodes)
        self.emr = emr if emr is not None else ElasticMapReduce()
        self.split_size = int(split_size)
        self.autoscaler = autoscaler
        self._pending: dict[str, dict] = {}

    # -- public API ----------------------------------------------------------

    def run(self, X) -> DistributedResult:
        """Execute the full job flow on ``X`` and return the collected result."""
        flow_id = self.submit(X)
        self.emr.run_job_flow(flow_id)
        return self.collect(flow_id)

    def submit(self, X) -> str:
        """Provision the job flow for ``X`` without executing it.

        Returns the flow id; pair with :meth:`collect` after
        ``emr.run_job_flow`` (or :meth:`resume` after a crash).
        """
        with get_tracer().span("driver.submit") as span:
            flow_id = self._submit(X, span)
        return flow_id

    def _submit(self, X, span) -> str:
        X = check_2d(X)
        n = X.shape[0]
        k_total = self.config.resolve_n_clusters(n)
        n_bits = self.config.resolve_n_bits(n)
        sigma = self.config.resolve_sigma(X)

        # Driver-side preprocessing: fit the global hash parameters
        # (Eqs. 4-5 need dataset-wide spans and histograms).
        hasher = make_hasher(self.config, n_bits).fit(X)

        # Only forward the autoscaler when one is set: EMR subclasses that
        # predate elasticity (test fixtures, chaos wrappers) keep working.
        flow_kwargs = {"split_size": self.split_size}
        if self.autoscaler is not None:
            flow_kwargs["autoscaler"] = self.autoscaler
        flow_id, flow = self.emr.create_job_flow(self.n_nodes, **flow_kwargs)
        # "Upload to S3" through the hardened client: the write is
        # checksummed, atomic, and retried under transient storage faults.
        self.emr.storage.put(f"{flow_id}/input", X)
        flow.fs.write("input", [(i, X[i]) for i in range(n)], split_size=self.split_size)

        # Step 1: LSH partitioning (Algorithm 1, map-only).
        stage1 = make_signature_job(hasher.dimensions_, hasher.thresholds_)
        flow.add_job(stage1, "input", "signatures")

        # Between-stage driver action: Eq.-6 merge + small-bucket folding +
        # global cluster allocation, then materialise bucket files. The
        # action is idempotent so a resumed flow can replay it safely.
        state: dict = {}
        flow.add_action(
            "merge-buckets",
            _merge_action(self.config, self.split_size, state, sigma, n_bits, k_total),
        )

        span.set("flow_id", flow_id)
        span.set("n_points", n)
        span.set("n_bits", n_bits)
        span.set("sigma", sigma)
        span.set("n_nodes", self.n_nodes)
        self._pending[flow_id] = {"flow": flow, "state": state, "n": n, "sigma": sigma}
        return flow_id

    def resume(self, flow_id: str) -> DistributedResult:
        """Recover a crashed/interrupted flow and collect its result.

        Completed MapReduce steps are restored from their S3 checkpoints
        (the LSH pass is not redone after a crash between stages); driver
        actions replay deterministically, so the labels are identical to an
        uninterrupted run. With tracing on, the resume's spans continue the
        same trace (append the sink) so one file holds the whole lifecycle.
        """
        with get_tracer().span("driver.resume", flow_id=flow_id) as span:
            results = self.emr.resume_job_flow(flow_id)
            span.set("n_steps", len(results))
        return self.collect(flow_id)

    def collect(self, flow_id: str) -> DistributedResult:
        """Gather labels + statistics from an executed flow and terminate it."""
        with get_tracer().span("driver.collect", flow_id=flow_id) as span:
            result = self._collect(flow_id)
            span.set("n_clusters", result.n_clusters)
            span.set("n_buckets", result.n_buckets)
            span.set("makespan", result.makespan)
            span.set("n_repaired", result.n_repaired)
            span.set("resumed_steps", list(result.resumed_steps))
        return result

    def _collect(self, flow_id: str) -> DistributedResult:
        try:
            pending = self._pending.pop(flow_id)
        except KeyError:
            raise KeyError(f"flow {flow_id!r} was not submitted by this driver") from None
        flow, state, n = pending["flow"], pending["state"], pending["n"]
        results = flow.results
        if len(results) < len(flow.steps) or "buckets" not in state:
            self._pending[flow_id] = pending  # still collectable after resume
            raise RuntimeError(
                f"flow {flow_id} is incomplete ({len(results)}/{len(flow.steps)} steps); "
                "run or resume it before collecting"
            )
        stage1_result, stage2_result = results[0], results[2]

        # Final step: collect labels from the output file into S3 and terminate.
        label_records = flow.fs.read("labels")
        labels = np.full(n, -1, dtype=np.int64)
        for idx, lab in label_records:
            labels[idx] = lab
        labels, n_repaired = self._validate_and_repair(flow_id, labels)
        self.emr.storage.put(f"{flow_id}/output/labels", labels)
        self.emr.terminate(flow_id)

        buckets = state["buckets"]
        if validation_enabled(self.config.validate):
            # Conservation: one signature per point through stage 1 (retries
            # must not inflate the tally), one reduce call per bucket in
            # stage 2, and a complete in-range final labelling.
            check_counter_equals(
                stage1_result.counters, "dasc", "signatures_emitted", n,
                stage="driver.collect",
            )
            check_counter_equals(
                stage1_result.counters, "map", "input_records", n,
                stage="driver.collect",
            )
            check_counter_equals(
                stage2_result.counters, "dasc", "buckets_reduced",
                buckets.n_buckets, stage="driver.collect",
            )
            check_labels_range(labels, state["total_clusters"], stage="driver.collect")
        return DistributedResult(
            labels=labels,
            n_clusters=state["total_clusters"],
            n_buckets=buckets.n_buckets,
            makespan=flow.makespan,
            gram_bytes=block_diagonal_bytes(buckets.sizes),
            n_nodes=self.n_nodes,
            counters={
                "stage1": stage1_result.counters.as_dict(),
                "stage2": stage2_result.counters.as_dict(),
            },
            stage_makespans={
                "lsh": stage1_result.makespan,
                "spectral": stage2_result.makespan,
            },
            n_repaired=n_repaired,
            resumed_steps=tuple(flow.restored_steps),
        )

    # -- internals ----------------------------------------------------------

    def _validate_and_repair(self, flow_id: str, labels: np.ndarray) -> tuple[np.ndarray, int]:
        """Graceful degradation for unlabelled points.

        A healthy flow labels every point; if label records went missing
        anyway, assign each orphan the label of its nearest labelled
        neighbour (its de-facto bucket) instead of crashing the driver.
        """
        unlabelled = np.flatnonzero(labels < 0)
        if unlabelled.size == 0:
            return labels, 0
        if unlabelled.size == labels.size:
            raise RuntimeError(
                f"flow {flow_id} produced no labels at all; nothing to repair from"
            )
        X = np.asarray(self.emr.storage.get(f"{flow_id}/input"), dtype=np.float64)
        labelled = np.flatnonzero(labels >= 0)
        for i in unlabelled:
            d2 = np.sum((X[labelled] - X[i]) ** 2, axis=1)
            labels[i] = labels[labelled[int(np.argmin(d2))]]
        get_tracer().event(
            "fault.label_repair", flow_id=flow_id, n_repaired=int(unlabelled.size)
        )
        return labels, int(unlabelled.size)


def _merge_action(
    config: DASCConfig, split_size: int, state: dict, sigma: float, n_bits: int, k_total: int
):
    """The between-stage driver action, built from the driver's settings alone.

    It must not hold the driver: the driver's EMR service holds the flow, the
    flow holds this action, so a reference back to the driver would make a
    cycle that keeps every finished run (its HDFS files and checkpoints)
    alive until Python's cyclic garbage collector happens to run.
    """

    def merge_action(fl):
        records = fl.fs.read("signatures")  # Algorithm 1's (signature, index)
        sigs = np.array([sig for sig, _ in records], dtype=np.uint64)
        buckets = make_buckets(sigs, n_bits, config)
        if validation_enabled(config.validate):
            check_buckets(buckets, len(records), point_signatures=sigs, stage="driver.merge")
        sizes = buckets.sizes
        ks = allocate_clusters(sizes, k_total, policy=config.allocation)
        offsets = np.concatenate([[0], np.cumsum(ks)[:-1]])
        allocation = {int(b): (int(ks[b]), int(offsets[b])) for b in range(buckets.n_buckets)}
        # Join each point's row from the file stage 1 mapped, by the record's
        # index: stage-2 reducers read (bucket_id, (index, vector)).
        rows = dict(fl.fs.read("input"))
        bucket_records = [
            (int(b), (idx, rows[idx])) for b, (_, idx) in zip(buckets.assignments, records)
        ]
        fl.fs.write("buckets", bucket_records, split_size=split_size, overwrite=True)
        state["buckets"] = buckets
        state["allocation"] = allocation
        state["total_clusters"] = int(ks.sum())
        # Stage 2 must exist before run() reaches it; append it now that
        # the allocation is known. A resumed flow replays this action,
        # so prune the stage-2 step a previous run already appended.
        fl.remove_steps_named(_STAGE2_STEP)
        stage2 = make_clustering_job(
            sigma=sigma,
            zero_diagonal=config.zero_diagonal,
            allocation=allocation,
            n_reducers=max(buckets.n_buckets, 1),
            eig_backend=config.eig_backend,
            kmeans_n_init=config.kmeans_n_init,
            seed=config.seed,
            validate=validation_enabled(config.validate),
            name=_STAGE2_STEP,
        )
        fl.add_job(stage2, "buckets", "labels")
        return allocation

    return merge_action
