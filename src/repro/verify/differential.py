"""Differential verification: the same workload down every execution path.

The pipeline makes strong determinism promises and one quality promise,
and this module checks all of them on a seeded, block-structured synthetic
workload (the shape of the paper's Section-5.3 comparison):

1. **serial vs process-pool** — ``DASC.fit`` with ``n_jobs=1`` and with
   ``n_jobs=2`` (its buckets solved on a fork pool started for the fit)
   must produce bit-identical labels, buckets, and allocations, and the
   model exported from the pooled fit (its per-bucket artifacts came back
   from the workers) must assign the training points their serial fit
   labels;
2. **crash-resumed vs uninterrupted** — a flow killed between steps and
   :meth:`~repro.dasc_mr.driver.DistributedDASC.resume`-d must match the
   uninterrupted run bit-for-bit (labels, counters, makespan);
3. **local vs distributed** — ``DASC.fit`` and the MapReduce path must
   produce identical labels (both seed each bucket by
   :func:`~repro.spectral.bucket.bucket_seed`);
4. **DASC vs exact SC** — the Section-5.3 quality claim: on
   block-structured data, DASC's ASE stays within a tolerance of exact
   spectral clustering's and NMI against ground truth stays high;
5. **corrupt-checkpoint resume vs uninterrupted** — a flow crashed
   mid-run whose last checkpoint is then bit-flipped at rest must, on
   resume, quarantine the damaged object (``<key>.corrupt``),
   re-execute that step, and still match the uninterrupted run
   bit-for-bit (labels and counters);
6. **serving assign vs fit** — the exported :class:`~repro.serving.DASCModel`
   must route every training point by exact signature and reproduce the
   fit labels bit-identically (the serving plane's self-consistency
   contract);
7. **streaming vs batch** — :class:`~repro.core.streaming.StreamingDASC`,
   calibrated on the workload and fed it in chunks, must return the serial
   ``DASC.fit`` labels, and its exported model must assign them too;
8. **iterative vs dense eigensolver** — the workload fitted as one merged
   bucket (``min_shared_bits=0``), which the default ``eig_backend="auto"``
   solves with ARPACK, must get the labels of ``eig_backend="dense"``,
   serially and with ``n_jobs=2``, and no solve may fall back.

Every run executes with the invariant layer on (``validate=True``), so a
passing report also certifies the stage-boundary contracts of
:mod:`repro.verify.invariants`. The ``repro verify`` CLI subcommand wraps
:func:`run_differential_suite` and renders the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CheckResult",
    "VerificationReport",
    "render_verification_report",
    "run_differential_suite",
]


@dataclass
class CheckResult:
    """Outcome of one differential check."""

    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


@dataclass
class VerificationReport:
    """All differential checks for one seeded workload."""

    workload: dict
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every check passed."""
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


# Worker processes of every process-pool leg.
_POOL_JOBS = 2


def _counters_equal(a: dict, b: dict) -> bool:
    return a == b


def _run_check(report: VerificationReport, name: str, fn) -> None:
    """Run one check body, converting any exception into a failed check."""
    try:
        passed, details = fn()
    except Exception as exc:  # a crashed path is a failed check, not a crashed harness
        passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
    report.checks.append(CheckResult(name=name, passed=bool(passed), details=details))


def run_differential_suite(
    *,
    n_samples: int = 400,
    n_clusters: int = 4,
    n_features: int = 16,
    cluster_std: float = 0.03,
    seed: int = 0,
    n_nodes: int = 4,
    nmi_min: float = 0.95,
    acc_min: float = 0.95,
    ase_rel_tol: float = 0.05,
    validate: bool = True,
) -> VerificationReport:
    """Run the full differential matrix on one seeded synthetic workload.

    Parameters mirror the workload knobs (block-structured blobs, the
    Section-5.3 shape) and the tolerance gates. ``validate=True`` (default)
    runs every path with stage-boundary invariant checks armed.
    """
    from repro.core.config import DASCConfig
    from repro.core.dasc import DASC
    from repro.core.streaming import StreamingDASC
    from repro.data.synthetic import make_blobs
    from repro.dasc_mr.driver import DistributedDASC
    from repro.mapreduce.emr import ElasticMapReduce
    from repro.metrics.accuracy import clustering_accuracy
    from repro.metrics.ase import average_squared_error
    from repro.metrics.nmi import normalized_mutual_info
    from repro.observability import Tracer, use_tracer
    from repro.spectral.cluster import SpectralClustering

    X, y = make_blobs(
        n_samples=n_samples,
        n_clusters=n_clusters,
        n_features=n_features,
        cluster_std=cluster_std,
        seed=seed,
    )
    report = VerificationReport(
        workload={
            "n_samples": int(n_samples),
            "n_clusters": int(n_clusters),
            "n_features": int(n_features),
            "cluster_std": float(cluster_std),
            "seed": int(seed),
            "n_nodes": int(n_nodes),
            "validate": bool(validate),
        },
    )

    def config(**overrides) -> DASCConfig:
        return DASCConfig(n_clusters=n_clusters, seed=seed, validate=validate, **overrides)

    # -- 1. serial vs process-pool DASC.fit ---------------------------------
    serial_model = DASC(config=config(n_jobs=1))
    serial_labels = serial_model.fit_predict(X)

    def check_serial_vs_parallel():
        parallel_model = DASC(config=config(n_jobs=_POOL_JOBS))
        parallel_labels = parallel_model.fit_predict(X)
        same_labels = bool(np.array_equal(serial_labels, parallel_labels))
        same_buckets = bool(
            np.array_equal(serial_model.buckets_.assignments, parallel_model.buckets_.assignments)
            and np.array_equal(serial_model.buckets_.signatures, parallel_model.buckets_.signatures)
        )
        same_allocation = bool(
            np.array_equal(serial_model.cluster_allocation_, parallel_model.cluster_allocation_)
        )
        same_served = bool(
            np.array_equal(parallel_model.export_model(X).assign(X), serial_labels)
        )
        return same_labels and same_buckets and same_allocation and same_served, {
            "labels_identical": same_labels,
            "buckets_identical": same_buckets,
            "allocation_identical": same_allocation,
            "served_labels_identical": same_served,
            "n_jobs": _POOL_JOBS,
        }

    _run_check(report, "dasc.serial_vs_parallel", check_serial_vs_parallel)

    def distributed(emr=None):
        return DistributedDASC(n_nodes=n_nodes, config=config(), emr=emr)

    serial_dist = distributed().run(X)

    # -- 2. crash-resumed vs uninterrupted ----------------------------------
    def check_resumed_vs_uninterrupted():
        emr = ElasticMapReduce()
        dasc = distributed(emr)
        flow_id = dasc.submit(X)
        emr.run_job_flow(flow_id, max_steps=1)  # "driver crash" after stage 1
        resumed = dasc.resume(flow_id)
        same_labels = bool(np.array_equal(serial_dist.labels, resumed.labels))
        same_counters = _counters_equal(serial_dist.counters, resumed.counters)
        same_makespan = (
            resumed.makespan == serial_dist.makespan
            and resumed.stage_makespans == serial_dist.stage_makespans
        )
        resumed_any = bool(resumed.resumed_steps)
        return same_labels and same_counters and same_makespan and resumed_any, {
            "labels_identical": same_labels,
            "counters_identical": same_counters,
            "makespan_identical": same_makespan,
            "makespan": resumed.makespan,
            "resumed_steps": list(resumed.resumed_steps),
        }

    _run_check(report, "distributed.resumed_vs_uninterrupted", check_resumed_vs_uninterrupted)

    # -- 3. local DASC.fit vs MapReduce DistributedDASC ---------------------
    def check_local_vs_distributed():
        identical = bool(np.array_equal(serial_labels, serial_dist.labels))
        return identical, {
            "labels_identical": identical,
            "nmi": float(normalized_mutual_info(serial_labels, serial_dist.labels)),
        }

    _run_check(report, "dasc.local_vs_distributed", check_local_vs_distributed)

    # -- 4. DASC vs exact spectral clustering (Section 5.3) ------------------
    def check_vs_exact_sc():
        sigma = serial_model.sigma_ or 1.0
        exact = SpectralClustering(n_clusters, sigma=sigma, seed=seed).fit_predict(X)
        ase_dasc = float(average_squared_error(X, serial_labels))
        ase_exact = float(average_squared_error(X, exact))
        nmi_truth = float(normalized_mutual_info(y, serial_labels))
        acc_truth = float(clustering_accuracy(y, serial_labels))
        ase_gate = ase_dasc <= ase_exact * (1.0 + ase_rel_tol) + 1e-12
        return ase_gate and nmi_truth >= nmi_min and acc_truth >= acc_min, {
            "ase_dasc": ase_dasc,
            "ase_exact_sc": ase_exact,
            "ase_rel_tol": ase_rel_tol,
            "nmi_vs_truth": nmi_truth,
            "accuracy_vs_truth": acc_truth,
            "nmi_min": nmi_min,
            "accuracy_min": acc_min,
        }

    _run_check(report, "quality.dasc_vs_exact_sc", check_vs_exact_sc)

    # -- 5. corrupt-checkpoint resume vs uninterrupted -----------------------
    def check_corrupt_checkpoint_resume():
        emr = ElasticMapReduce()
        dasc = distributed(emr)
        flow_id = dasc.submit(X)
        emr.run_job_flow(flow_id, max_steps=2)  # "driver crash" after stage 2
        # Bit-flip the last checkpoint at rest, bypassing the hardened client.
        key = f"{flow_id}/checkpoints/step-000"
        damaged = bytearray(emr.s3.get(key))
        damaged[len(damaged) // 2] ^= 0xFF
        emr.s3.put(key, bytes(damaged))
        resumed = dasc.resume(flow_id)
        quarantined = emr.s3.exists(key + ".corrupt")
        same_labels = bool(np.array_equal(serial_dist.labels, resumed.labels))
        same_counters = _counters_equal(serial_dist.counters, resumed.counters)
        reexecuted = 0 not in resumed.resumed_steps
        return same_labels and same_counters and quarantined and reexecuted, {
            "labels_identical": same_labels,
            "counters_identical": same_counters,
            "quarantined": bool(quarantined),
            "step0_reexecuted": bool(reexecuted),
            "resumed_steps": list(resumed.resumed_steps),
        }

    _run_check(report, "storage.corrupt_checkpoint_resume", check_corrupt_checkpoint_resume)

    # -- 6. serving assign vs fit --------------------------------------------
    def check_serving_assign_vs_fit():
        model = serial_model.export_model(X)
        assigned, details = model.assign(X, return_details=True)
        all_exact = bool((details["methods"] == 0).all())
        same_labels = bool(np.array_equal(assigned, serial_labels))
        # Round-trip the artifact through the checksummed envelope plane so
        # the served bytes, not just the in-memory object, carry the contract.
        from repro.mapreduce.storage import S3Store
        from repro.serving.model import DASCModel

        store = S3Store()
        model.save(store, "models/differential")
        reloaded = DASCModel.load(store, "models/differential")
        same_after_reload = bool(np.array_equal(reloaded.assign(X), serial_labels))
        return all_exact and same_labels and same_after_reload, {
            "all_routes_exact": all_exact,
            "labels_identical": same_labels,
            "labels_identical_after_reload": same_after_reload,
            "n_buckets": model.n_buckets,
        }

    _run_check(report, "serving.assign_vs_fit", check_serving_assign_vs_fit)

    # -- 7. streaming vs batch -------------------------------------------------
    def check_streaming_vs_batch():
        stream = StreamingDASC(config=config()).calibrate(X)
        for chunk in np.array_split(X, 5):
            stream.partial_fit(chunk)
        same_labels = bool(np.array_equal(stream.finalize(), serial_labels))
        same_served = bool(np.array_equal(stream.export_model().assign(X), serial_labels))
        return same_labels and same_served, {
            "labels_identical": same_labels,
            "served_labels_identical": same_served,
            "n_chunks": 5,
        }

    _run_check(report, "dasc.streaming_vs_batch", check_streaming_vs_batch)

    # -- 8. default (iterative) vs dense eigensolver ---------------------------
    def check_iterative_vs_dense():
        # One merged bucket holds the whole workload, which is large enough
        # for the default solver to pick ARPACK over dense ``eigh``.
        tracer = Tracer()
        labels = {}
        with use_tracer(tracer):
            for backend in ("auto", "dense"):
                for jobs in (1, _POOL_JOBS):
                    cfg = config(min_shared_bits=0, eig_backend=backend, n_jobs=jobs)
                    labels[backend, jobs] = DASC(config=cfg).fit_predict(X)
        reference = labels["dense", 1]
        identical = all(np.array_equal(reference, other) for other in labels.values())
        events = [r for r in tracer.sink.records if r["name"].startswith("eigen.")]
        solvers = sorted({e["attributes"]["solver"] for e in events if e["name"] == "eigen.solve"})
        fallbacks = sum(e["name"] == "eigen.fallback" for e in events)
        return identical and fallbacks == 0, {
            "labels_identical": identical,
            "fallbacks": fallbacks,
            "solvers": ",".join(solvers),
            "n_jobs": _POOL_JOBS,
        }

    _run_check(report, "eigen.iterative_vs_dense", check_iterative_vs_dense)

    return report


def render_verification_report(report: VerificationReport) -> str:
    """Human-readable report (what ``repro verify`` prints)."""
    w = report.workload
    lines = [
        "differential verification "
        f"(n={w.get('n_samples')}, k={w.get('n_clusters')}, d={w.get('n_features')}, "
        f"seed={w.get('seed')}, validate={'on' if w.get('validate') else 'off'})",
        "",
    ]
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        detail = ", ".join(
            f"{key}={_fmt(value)}" for key, value in sorted(check.details.items())
        )
        lines.append(f"  {status}  {check.name}" + (f"  [{detail}]" if detail else ""))
    lines.append("")
    lines.append(
        f"{sum(c.passed for c in report.checks)}/{len(report.checks)} checks passed"
        + ("" if report.passed else "  — VERIFICATION FAILED")
    )
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
