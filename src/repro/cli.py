"""Command-line interface.

Three subcommands cover the common workflows:

* ``repro cluster`` — run DASC (or SC/PSC/NYST) on a CSV of feature rows
  and write a label column; prints accuracy when a label column is given.
* ``repro generate`` — emit a synthetic dataset (blobs / uniform /
  wikipedia) as CSV for experimentation.
* ``repro analyze`` — print the paper's analytic curves (Figure 1 / 2
  models) for a chosen dataset size.
* ``repro trace report`` — render a recorded JSON-lines trace as the
  per-stage timing breakdown of Section 5.6 plus the fault ledger.
* ``repro trace critical-path`` — the trace-analysis plane: wall-clock
  drill-down, per-phase simulated critical path with bottleneck-node and
  straggler attribution, node utilization, and parallel efficiency.
* ``repro trace diff`` — align two traces stage-by-stage, itemize deltas
  (incl. new/vanished stages and the fault-ledger delta), and gate on
  ``--fail-on 'PATTERN>NN%'`` regression rules (nonzero exit on violation).
* ``repro bench snapshot`` / ``repro bench compare`` — distill traced
  benchmark runs into schema-versioned ``BENCH_<tag>.json`` snapshots and
  gate a current snapshot against a committed baseline in CI.
* ``repro verify`` — the differential verification harness: the same
  seeded workload through serial vs process-pool execution, local vs
  MapReduce DASC, and crash-resumed vs uninterrupted job flows
  (bit-identical labels/counters), plus DASC-vs-exact-SC quality gates
  (Section 5.3), with stage-boundary invariant checks armed.
* ``repro chaos`` — the storage-fault smoke drill: the distributed driver
  under a seeded :class:`~repro.mapreduce.storage.ChaosStore` schedule
  (throttling, torn writes, bit flips) must match the fault-free run
  bit-for-bit, and a corrupted checkpoint must quarantine and resume
  cleanly; ``--trace`` records the run for ``repro trace report``.
* ``repro autoscale`` — the elasticity drill: the distributed driver with
  an :class:`~repro.mapreduce.autoscale.Autoscaler` resizing the cluster
  mid-flow must reproduce the static run's labels and counters
  bit-identically, a crashed-and-resumed flow must replay the identical
  scaling schedule, and the remaining-makespan win (net of cold starts
  and drains) is reported; ``--trace`` records the decision events.

Installed as ``python -m repro.cli ...`` (no console-script entry point is
registered so that offline ``setup.py develop`` installs stay simple).
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument grammar (exposed for testing)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--log-level", default="WARNING",
        help="threshold for the repro logger tree (default: WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cluster = sub.add_parser("cluster", help="cluster a CSV of feature rows")
    p_cluster.add_argument("input", help="CSV path, or '-' for stdin")
    p_cluster.add_argument("-k", "--n-clusters", type=int, required=True)
    p_cluster.add_argument(
        "-a", "--algorithm", choices=("dasc", "sc", "psc", "nyst"), default="dasc"
    )
    p_cluster.add_argument("--sigma", type=float, default=None, help="Gaussian bandwidth")
    p_cluster.add_argument("--n-bits", type=int, default=None, help="DASC signature length M")
    p_cluster.add_argument("--seed", type=int, default=0)
    p_cluster.add_argument(
        "--n-jobs", type=int, default=None,
        help="worker processes for DASC's per-bucket stage (-1: all cores; "
        "default: REPRO_N_JOBS or serial); results are identical to serial",
    )
    p_cluster.add_argument(
        "--label-column", type=int, default=None,
        help="0-based column holding ground-truth labels (excluded from features)",
    )
    p_cluster.add_argument("-o", "--output", default="-", help="output CSV ('-': stdout)")
    p_cluster.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a JSON-lines trace of the run (view with 'repro trace report')",
    )

    p_gen = sub.add_parser("generate", help="emit a synthetic dataset as CSV")
    p_gen.add_argument("kind", choices=("blobs", "uniform", "wikipedia"))
    p_gen.add_argument("-n", "--n-samples", type=int, default=1024)
    p_gen.add_argument("-k", "--n-clusters", type=int, default=8)
    p_gen.add_argument("-d", "--n-features", type=int, default=16)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", default="-")

    p_an = sub.add_parser("analyze", help="print the paper's analytic models")
    p_an.add_argument("model", choices=("complexity", "collision"))
    p_an.add_argument("-n", "--n-samples", type=float, default=2**20)
    p_an.add_argument("-m", "--n-bits", type=int, default=15)

    p_verify = sub.add_parser(
        "verify",
        help="differential verification: serial/parallel/resumed equality + quality gates",
    )
    p_verify.add_argument("-n", "--n-samples", type=int, default=400)
    p_verify.add_argument("-k", "--n-clusters", type=int, default=4)
    p_verify.add_argument("-d", "--n-features", type=int, default=16)
    p_verify.add_argument("--cluster-std", type=float, default=0.03)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--n-jobs", type=int, default=2,
        help="worker processes for the parallel legs (default: 2)",
    )
    p_verify.add_argument("--n-nodes", type=int, default=4, help="simulated cluster size")
    p_verify.add_argument("--nmi-min", type=float, default=0.95, help="NMI quality gate")
    p_verify.add_argument(
        "--ase-rel-tol", type=float, default=0.05,
        help="max relative ASE excess over exact spectral clustering",
    )
    p_verify.add_argument(
        "--no-validate", action="store_true",
        help="run without the stage-boundary invariant checks",
    )
    p_verify.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write the report as JSON ('-': stdout)",
    )

    p_chaos = sub.add_parser(
        "chaos",
        help="storage-fault smoke drill: seeded ChaosStore schedule over the distributed driver",
    )
    p_chaos.add_argument("-n", "--n-samples", type=int, default=400)
    p_chaos.add_argument("-k", "--n-clusters", type=int, default=4)
    p_chaos.add_argument("-d", "--n-features", type=int, default=16)
    p_chaos.add_argument("--seed", type=int, default=0, help="workload/model seed")
    p_chaos.add_argument("--n-nodes", type=int, default=4, help="simulated cluster size")
    p_chaos.add_argument(
        "--error-rate", type=float, default=0.1,
        help="per-request transient InternalError probability",
    )
    p_chaos.add_argument(
        "--throttle-rate", type=float, default=0.05,
        help="per-request SlowDown throttling probability",
    )
    p_chaos.add_argument(
        "--torn-rate", type=float, default=0.1,
        help="probability a stored payload lands truncated",
    )
    p_chaos.add_argument(
        "--corrupt-rate", type=float, default=0.05,
        help="probability a stored payload lands with a flipped bit",
    )
    p_chaos.add_argument("--storage-seed", type=int, default=7, help="fault-schedule seed")
    p_chaos.add_argument(
        "--max-attempts", type=int, default=16,
        help="retry budget of the hardened storage client",
    )
    p_chaos.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a JSON-lines trace incl. the storage fault ledger",
    )

    p_scale = sub.add_parser(
        "autoscale",
        help="elasticity drill: autoscaled vs static flow, bit-identity + schedule replay",
    )
    p_scale.add_argument("-n", "--n-samples", type=int, default=2048)
    p_scale.add_argument("-k", "--n-clusters", type=int, default=24)
    p_scale.add_argument("-d", "--n-features", type=int, default=8)
    p_scale.add_argument("--cluster-std", type=float, default=0.01)
    p_scale.add_argument("--seed", type=int, default=0, help="workload/model seed")
    p_scale.add_argument(
        "--n-bits", type=int, default=7,
        help="signature length M (merging is disabled so buckets stay balanced)",
    )
    p_scale.add_argument("--n-nodes", type=int, default=2, help="provisioned cluster size")
    p_scale.add_argument(
        "--policy", choices=("target-makespan", "budget-cap"), default="target-makespan",
    )
    p_scale.add_argument(
        "--target", type=float, default=None, metavar="SECONDS",
        help="TargetMakespan SLO (default: a quarter of the static stage-2 makespan)",
    )
    p_scale.add_argument(
        "--budget", type=float, default=None, metavar="NODE_SECONDS",
        help="BudgetCap node-seconds ceiling (default: the static run's spend)",
    )
    p_scale.add_argument("--max-nodes", type=int, default=16, help="scale-up ceiling")
    p_scale.add_argument(
        "--cold-start", type=float, default=None, metavar="SECONDS",
        help="boot latency charged per scale-up (default: 2%% of static stage 2)",
    )
    p_scale.add_argument(
        "--drain-cost-per-block", type=float, default=1.0,
        help="re-replication cost charged per block moved off a draining node",
    )
    p_scale.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a JSON-lines trace incl. the autoscale decision events",
    )

    p_serve = sub.add_parser(
        "serve-bench",
        help="serving drill: export a fitted model, round-trip it through a chaotic store, report latency quantiles",
    )
    p_serve.add_argument("-n", "--n-samples", type=int, default=400)
    p_serve.add_argument("-k", "--n-clusters", type=int, default=4)
    p_serve.add_argument("-d", "--n-features", type=int, default=16)
    p_serve.add_argument("--cluster-std", type=float, default=0.03)
    p_serve.add_argument("--seed", type=int, default=0, help="workload/model seed")
    p_serve.add_argument(
        "--n-queries", type=int, default=2000,
        help="jittered out-of-sample queries to serve after the training replay",
    )
    p_serve.add_argument(
        "--noise", type=float, default=0.3,
        help="query jitter std around training points (exercises the routing ladder)",
    )
    p_serve.add_argument("--batch-size", type=int, default=256, help="service micro-batch width")
    p_serve.add_argument("--cache-size", type=int, default=4096, help="signature-route LRU capacity")
    p_serve.add_argument(
        "--error-rate", type=float, default=0.05,
        help="ChaosStore transient InternalError probability on the model round-trip",
    )
    p_serve.add_argument(
        "--torn-rate", type=float, default=0.05,
        help="probability a stored payload lands truncated",
    )
    p_serve.add_argument(
        "--corrupt-rate", type=float, default=0.05,
        help="probability a stored payload lands with a flipped bit",
    )
    p_serve.add_argument("--storage-seed", type=int, default=7, help="fault-schedule seed")
    p_serve.add_argument(
        "--p99-max", type=float, default=None, metavar="SECONDS",
        help="fail if per-point p99 assignment latency exceeds this",
    )
    p_serve.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a JSON-lines trace of the serving batches",
    )

    p_trace = sub.add_parser("trace", help="inspect recorded traces")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_report = trace_sub.add_parser(
        "report", help="render a trace file as a per-stage timing breakdown"
    )
    p_report.add_argument("trace_file", help="JSON-lines trace path, or '-' for stdin")
    p_report.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="only show the N stages with the largest self time",
    )
    p_critical = trace_sub.add_parser(
        "critical-path",
        help="critical-path, straggler, and utilization analysis of one trace",
    )
    p_critical.add_argument("trace_file", help="JSON-lines trace path, or '-' for stdin")
    p_diff = trace_sub.add_parser(
        "diff", help="align two traces stage-by-stage and gate on regressions"
    )
    p_diff.add_argument("baseline", help="baseline JSON-lines trace path")
    p_diff.add_argument("current", help="current JSON-lines trace path")
    p_diff.add_argument(
        "--fail-on", action="append", default=[], metavar="SPEC",
        help="regression rule '[self:|total:]PATTERN>NN%%' (glob over stage "
        "names, e.g. 'mr.*>20%%'); repeatable; any violation exits nonzero",
    )
    p_diff.add_argument(
        "--min-time", type=float, default=0.0, metavar="SECONDS",
        help="noise floor: ignore stages whose time is below this on both sides",
    )

    p_bench = sub.add_parser("bench", help="perf-regression snapshot pipeline")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_snap = bench_sub.add_parser(
        "snapshot", help="distill traced benchmark runs into a snapshot JSON"
    )
    p_snap.add_argument(
        "traces", nargs="+", metavar="TRACE",
        help="JSON-lines trace files (benchmark name = file stem)",
    )
    p_snap.add_argument("-o", "--output", required=True, help="snapshot JSON output path")
    p_snap.add_argument("--tag", default="local", help="snapshot tag (default: local)")
    p_compare = bench_sub.add_parser(
        "compare", help="gate a current snapshot against a baseline snapshot"
    )
    p_compare.add_argument("baseline", help="baseline snapshot JSON path")
    p_compare.add_argument("current", help="current snapshot JSON path")
    p_compare.add_argument(
        "--fail-on", action="append", default=[], metavar="SPEC",
        help="regression rule '[self:|total:]PATTERN>NN%%'; repeatable",
    )
    p_compare.add_argument(
        "--min-time", type=float, default=0.0, metavar="SECONDS",
        help="noise floor: ignore stages whose time is below this on both sides",
    )
    return parser


def _read_matrix(path: str, label_column: int | None):
    stream = sys.stdin if path == "-" else open(path, newline="")
    try:
        reader = csv.reader(stream)
        rows = [(reader.line_num, row) for row in reader if row]
    finally:
        if stream is not sys.stdin:
            stream.close()
    if not rows:
        raise SystemExit("error: empty input")
    n_columns = len(rows[0][1])
    values = []
    for line, row in rows:
        if len(row) != n_columns:
            raise SystemExit(
                f"error: line {line} has {len(row)} columns, expected {n_columns}"
            )
        try:
            values.append([float(v) for v in row])
        except ValueError as exc:
            raise SystemExit(f"error: line {line}: {exc}") from None
    data = np.array(values)
    labels = None
    if label_column is not None:
        if not -n_columns <= label_column < n_columns:
            raise SystemExit(
                f"error: --label-column {label_column} is out of range "
                f"for {n_columns} columns"
            )
        labels = data[:, label_column].astype(np.int64)
        data = np.delete(data, label_column, axis=1)
    return data, labels


def _write_rows(path: str, rows) -> None:
    stream = sys.stdout if path == "-" else open(path, "w", newline="")
    try:
        writer = csv.writer(stream)
        writer.writerows(rows)
    finally:
        if stream is not sys.stdout:
            stream.close()


def _cmd_cluster(args) -> int:
    import contextlib

    from repro import DASC, PSC, NystromSpectralClustering, SpectralClustering
    from repro.metrics import clustering_accuracy
    from repro.observability import trace_to

    X, y = _read_matrix(args.input, args.label_column)
    sigma = args.sigma
    if args.algorithm == "dasc":
        algo = DASC(
            args.n_clusters, sigma=sigma, n_bits=args.n_bits, seed=args.seed,
            n_jobs=args.n_jobs,
        )
    elif args.algorithm == "sc":
        algo = SpectralClustering(args.n_clusters, sigma=sigma or 1.0, seed=args.seed)
    elif args.algorithm == "psc":
        algo = PSC(args.n_clusters, sigma=sigma or 1.0, seed=args.seed)
    else:
        algo = NystromSpectralClustering(args.n_clusters, sigma=sigma or 1.0, seed=args.seed)
    scope = trace_to(args.trace) if args.trace else contextlib.nullcontext()
    with scope as tracer:
        if tracer is not None:
            tracer.meta(
                command="cluster", algorithm=args.algorithm,
                n_points=int(X.shape[0]), n_clusters=args.n_clusters,
            )
        labels = algo.fit_predict(X)
    _write_rows(args.output, [[int(l)] for l in labels])
    if y is not None:
        print(f"accuracy: {clustering_accuracy(y, labels):.4f}", file=sys.stderr)
    if args.trace:
        print(f"trace written to {args.trace}", file=sys.stderr)
    return 0


def _cmd_generate(args) -> int:
    from repro.data import make_blobs, make_uniform, make_wikipedia_dataset

    if args.kind == "uniform":
        X = make_uniform(args.n_samples, args.n_features, seed=args.seed)
        rows = [list(map(float, row)) for row in X]
    elif args.kind == "blobs":
        X, y = make_blobs(
            args.n_samples, n_clusters=args.n_clusters, n_features=args.n_features, seed=args.seed
        )
        rows = [list(map(float, row)) + [int(label)] for row, label in zip(X, y)]
    else:
        X, y = make_wikipedia_dataset(
            args.n_samples, n_categories=args.n_clusters, seed=args.seed
        )
        rows = [list(map(float, row)) + [int(label)] for row, label in zip(X, y)]
    _write_rows(args.output, rows)
    return 0


def _cmd_analyze(args) -> int:
    if args.model == "complexity":
        from repro.analysis import (
            dasc_memory_bytes,
            dasc_time_seconds,
            sc_memory_bytes,
            sc_time_seconds,
        )

        n = args.n_samples
        print(f"N = {n:.0f}", file=sys.stdout)
        print(f"DASC time : {dasc_time_seconds(n) / 3600:.3f} h   memory: {dasc_memory_bytes(n) / 2**20:.1f} MiB", file=sys.stdout)
        print(f"SC time   : {sc_time_seconds(n) / 3600:.3f} h   memory: {sc_memory_bytes(n) / 2**20:.1f} MiB", file=sys.stdout)
    else:
        from repro.analysis import wikipedia_collision_probability

        p = wikipedia_collision_probability(args.n_samples, args.n_bits)
        print(f"N = {args.n_samples:.0f}, M = {args.n_bits}: collision probability = {p:.4f}", file=sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    import json

    from repro.verify import render_verification_report, run_differential_suite

    report = run_differential_suite(
        n_samples=args.n_samples,
        n_clusters=args.n_clusters,
        n_features=args.n_features,
        cluster_std=args.cluster_std,
        seed=args.seed,
        n_jobs=args.n_jobs,
        n_nodes=args.n_nodes,
        nmi_min=args.nmi_min,
        ase_rel_tol=args.ase_rel_tol,
        validate=not args.no_validate,
    )
    print(render_verification_report(report), file=sys.stdout)
    if args.json is not None:
        payload = json.dumps(report.to_dict(), indent=2)
        if args.json == "-":
            print(payload, file=sys.stdout)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload + "\n")
            print(f"report written to {args.json}", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_chaos(args) -> int:
    import contextlib

    from repro.core.config import DASCConfig
    from repro.dasc_mr.driver import DistributedDASC
    from repro.data.synthetic import make_blobs
    from repro.mapreduce import ChaosStore, ElasticMapReduce, RetryPolicy, StorageFaultPolicy
    from repro.observability import trace_to

    X, _ = make_blobs(
        n_samples=args.n_samples, n_clusters=args.n_clusters,
        n_features=args.n_features, seed=args.seed,
    )

    def config() -> DASCConfig:
        return DASCConfig(n_clusters=args.n_clusters, seed=args.seed)

    clean = DistributedDASC(n_nodes=args.n_nodes, config=config()).run(X)
    policy = StorageFaultPolicy(
        error_rate=args.error_rate,
        throttle_rate=args.throttle_rate,
        torn_write_rate=args.torn_rate,
        corrupt_rate=args.corrupt_rate,
        latency=(0.001, 0.01),
        seed=args.storage_seed,
    )
    retry = RetryPolicy(max_attempts=args.max_attempts, deadline=300.0, seed=args.storage_seed)
    scope = trace_to(args.trace) if args.trace else contextlib.nullcontext()
    with scope as tracer:
        if tracer is not None:
            tracer.meta(
                command="chaos", n_points=int(X.shape[0]), n_nodes=args.n_nodes,
                error_rate=args.error_rate, throttle_rate=args.throttle_rate,
                torn_rate=args.torn_rate, corrupt_rate=args.corrupt_rate,
                storage_seed=args.storage_seed,
            )
        # Drill 1: the full flow under the seeded fault schedule.
        store = ChaosStore(policy=policy)
        emr = ElasticMapReduce(store=store, retry=retry)
        chaotic = DistributedDASC(n_nodes=args.n_nodes, config=config(), emr=emr).run(X)

        # Drill 2: driver crash + a corrupted last checkpoint; the resume
        # must quarantine it and still converge.
        emr2 = ElasticMapReduce()
        dasc2 = DistributedDASC(n_nodes=args.n_nodes, config=config(), emr=emr2)
        flow_id = dasc2.submit(X)
        emr2.run_job_flow(flow_id, max_steps=2)
        key = f"{flow_id}/checkpoints/step-000"
        damaged = bytearray(emr2.s3.get(key))
        damaged[len(damaged) // 2] ^= 0xFF
        emr2.s3.put(key, bytes(damaged))
        resumed = dasc2.resume(flow_id)
        quarantined = emr2.s3.exists(key + ".corrupt")

    checks = {
        "chaos_labels_identical": bool(np.array_equal(clean.labels, chaotic.labels)),
        "chaos_counters_identical": clean.counters == chaotic.counters,
        "chaos_makespan_identical": clean.makespan == chaotic.makespan,
        "resume_labels_identical": bool(np.array_equal(clean.labels, resumed.labels)),
        "corrupt_checkpoint_quarantined": bool(quarantined),
    }
    print(
        f"storage chaos drill (n={X.shape[0]}, n_nodes={args.n_nodes}, "
        f"storage_seed={args.storage_seed})",
        file=sys.stdout,
    )
    for name, passed in checks.items():
        print(f"  {'PASS' if passed else 'FAIL'}  {name}", file=sys.stdout)
    injected = ", ".join(f"{k}×{v}" for k, v in sorted(store.injected.items())) or "none"
    print(
        f"  injected faults: {injected}; simulated latency "
        f"{store.simulated_latency:.3f}s; retry backoff {emr.storage.backoff_total:.3f}s",
        file=sys.stdout,
    )
    if args.trace:
        print(f"trace written to {args.trace}", file=sys.stderr)
    return 0 if all(checks.values()) else 1


def _cmd_autoscale(args) -> int:
    import contextlib

    from repro.core.config import DASCConfig
    from repro.dasc_mr.driver import DistributedDASC
    from repro.data.synthetic import make_blobs
    from repro.mapreduce import Autoscaler, BudgetCap, TargetMakespan
    from repro.observability import trace_to

    X, _ = make_blobs(
        n_samples=args.n_samples, n_clusters=args.n_clusters,
        n_features=args.n_features, cluster_std=args.cluster_std, seed=args.seed,
    )

    def config() -> DASCConfig:
        # min_shared_bits == n_bits disables Eq.-6 merging so stage 2 keeps
        # many balanced buckets — the regime where elasticity can pay.
        return DASCConfig(
            n_clusters=args.n_clusters, n_bits=args.n_bits,
            min_shared_bits=args.n_bits, min_bucket_size=10, seed=args.seed,
        )

    static = DistributedDASC(n_nodes=args.n_nodes, config=config()).run(X)
    base = static.stage_makespans["spectral"]
    cold_start = args.cold_start if args.cold_start is not None else base * 0.02

    def make_scaler() -> Autoscaler:
        if args.policy == "budget-cap":
            budget = args.budget if args.budget is not None else static.makespan * args.n_nodes
            policy = BudgetCap(node_seconds=budget)
        else:
            target = args.target if args.target is not None else base / 4.0
            policy = TargetMakespan(target=target, max_nodes=args.max_nodes)
        return Autoscaler(
            policy, cold_start=cold_start, drain_cost_per_block=args.drain_cost_per_block
        )

    scope = trace_to(args.trace) if args.trace else contextlib.nullcontext()
    with scope as tracer:
        if tracer is not None:
            tracer.meta(
                command="autoscale", n_points=int(X.shape[0]), n_nodes=args.n_nodes,
                policy=args.policy, cold_start=cold_start,
            )
        # Drill 1: the autoscaled flow end to end.
        scaler = make_scaler()
        auto = DistributedDASC(
            n_nodes=args.n_nodes, config=config(), autoscaler=scaler
        ).run(X)

        # Drill 2: crash the driver after the LSH stage, resume, and demand
        # the checkpointed decision log replays the same schedule.
        replay_scaler = make_scaler()
        crashed = DistributedDASC(
            n_nodes=args.n_nodes, config=config(), autoscaler=replay_scaler
        )
        flow_id = crashed.submit(X)
        crashed.emr.run_job_flow(flow_id, max_steps=2)
        resumed = crashed.resume(flow_id)

    remaining_static = base
    remaining_auto = auto.stage_makespans["spectral"] + scaler.overhead
    checks = {
        "labels_identical": bool(np.array_equal(static.labels, auto.labels)),
        "counters_identical": static.counters == auto.counters,
        "resume_labels_identical": bool(np.array_equal(static.labels, resumed.labels)),
        "resume_schedule_identical": replay_scaler.schedule() == scaler.schedule(),
        "resume_makespan_identical": resumed.makespan == auto.makespan,
    }
    summary = scaler.summary()
    print(
        f"autoscale drill (n={X.shape[0]}, n_nodes={args.n_nodes}, "
        f"policy={summary['policy']})",
        file=sys.stdout,
    )
    for name, passed in checks.items():
        print(f"  {'PASS' if passed else 'FAIL'}  {name}", file=sys.stdout)
    print(
        f"  nodes: {summary['initial_nodes']} -> {summary['final_nodes']} over "
        f"{summary['decisions']} decisions "
        f"(up×{summary['actions']['up']}, down×{summary['actions']['down']}, "
        f"hold×{summary['actions']['hold']})",
        file=sys.stdout,
    )
    for trigger, action, before, after in scaler.schedule():
        print(f"    {trigger}: {action} {before} -> {after}", file=sys.stdout)
    print(
        f"  remaining makespan: static {remaining_static:.0f}s vs autoscaled "
        f"{remaining_auto:.0f}s "
        f"({remaining_static / remaining_auto:.2f}x; cold start {summary['cold_start']:.0f}s, "
        f"drain {summary['drain_cost']:.0f}s over {summary['blocks_moved']} blocks)",
        file=sys.stdout,
    )
    if args.trace:
        print(f"trace written to {args.trace}", file=sys.stderr)
    return 0 if all(checks.values()) else 1


def _cmd_serve_bench(args) -> int:
    import contextlib

    from repro.core.config import DASCConfig
    from repro.core.dasc import DASC
    from repro.data.synthetic import make_blobs
    from repro.mapreduce.storage import (
        ChaosStore,
        CorruptObjectError,
        RetryPolicy,
        S3Store,
        StorageFaultPolicy,
    )
    from repro.observability import trace_to
    from repro.serving import AssignmentService, DASCModel

    X, _ = make_blobs(
        n_samples=args.n_samples, n_clusters=args.n_clusters,
        n_features=args.n_features, cluster_std=args.cluster_std, seed=args.seed,
    )
    scope = trace_to(args.trace) if args.trace else contextlib.nullcontext()
    with scope as tracer:
        if tracer is not None:
            tracer.meta(
                command="serve-bench", n_points=int(X.shape[0]),
                n_queries=args.n_queries, batch_size=args.batch_size,
                storage_seed=args.storage_seed,
            )
        estimator = DASC(config=DASCConfig(n_clusters=args.n_clusters, seed=args.seed))
        labels = estimator.fit_predict(X)
        artifact = estimator.export_model(X)

        # Round-trip the artifact through a chaotic store: the hardened
        # write-verify-promote path must absorb the injected faults.
        policy = StorageFaultPolicy(
            error_rate=args.error_rate, torn_write_rate=args.torn_rate,
            corrupt_rate=args.corrupt_rate, latency=(0.001, 0.01),
            seed=args.storage_seed,
        )
        store = ChaosStore(policy=policy)
        retry = RetryPolicy(max_attempts=16, deadline=300.0, seed=args.storage_seed)
        artifact.save(store, "models/serve-bench", retry=retry)
        service = AssignmentService.from_store(
            store, "models/serve-bench", retry=retry,
            batch_size=args.batch_size, cache_size=args.cache_size,
        )

        # Drill 1: self-consistency — the training set must reproduce the
        # fit labels bit-identically through the served model.
        self_consistent = bool(np.array_equal(service.assign(X), labels))

        # Drill 2: serve jittered out-of-sample queries (the latency numbers).
        rng = np.random.default_rng(args.seed + 1)
        picks = rng.integers(X.shape[0], size=args.n_queries)
        queries = X[picks] + rng.normal(scale=args.noise, size=(args.n_queries, X.shape[1]))
        service.assign(queries)

        # Drill 3: a model corrupted at rest must be quarantined on load,
        # and a re-published model under the same key must load cleanly.
        plain = S3Store()
        artifact.save(plain, "models/at-rest")
        damaged = bytearray(plain.get("models/at-rest"))
        damaged[len(damaged) // 2] ^= 0xFF
        plain.put("models/at-rest", bytes(damaged))
        try:
            DASCModel.load(plain, "models/at-rest")
            quarantined = False
        except CorruptObjectError:
            quarantined = plain.exists("models/at-rest.corrupt") and not plain.exists(
                "models/at-rest"
            )
        artifact.save(plain, "models/at-rest")
        reload_ok = bool(
            np.array_equal(DASCModel.load(plain, "models/at-rest").assign(X), labels)
        )

    summary = service.latency_summary()
    mix = service.route_mix()
    checks = {
        "self_consistency": self_consistent,
        "corrupt_model_quarantined": bool(quarantined),
        "reload_after_quarantine": reload_ok,
    }
    if args.p99_max is not None:
        checks["p99_gate"] = summary["p99_s"] is not None and summary["p99_s"] <= args.p99_max
    print(
        f"serving bench (n_train={X.shape[0]}, n_queries={args.n_queries}, "
        f"batch={args.batch_size}, cache={args.cache_size}, noise={args.noise})",
        file=sys.stdout,
    )
    for name, passed in checks.items():
        print(f"  {'PASS' if passed else 'FAIL'}  {name}", file=sys.stdout)
    us = lambda v: "n/a" if v is None else f"{v * 1e6:.1f}us"
    print(
        f"  latency/pt: p50 {us(summary['p50_s'])}  p95 {us(summary['p95_s'])}  "
        f"p99 {us(summary['p99_s'])}  mean {us(summary['mean_s'])}",
        file=sys.stdout,
    )
    throughput = summary["throughput_pts_per_s"]
    print(
        f"  throughput: {throughput:.0f} pts/s over {summary['batches']} batches "
        f"({summary['requests']} requests)",
        file=sys.stdout,
    )
    print(
        "  routing: "
        + ", ".join(f"{k}={mix[k]}" for k in ("exact", "near", "nearest", "fallback"))
        + f"; cache hits {mix['cache_hits']}/{mix['cache_hits'] + mix['cache_misses']}",
        file=sys.stdout,
    )
    injected = ", ".join(f"{k}×{v}" for k, v in sorted(store.injected.items())) or "none"
    print(f"  injected store faults: {injected}", file=sys.stdout)
    if args.trace:
        print(f"trace written to {args.trace}", file=sys.stderr)
    return 0 if all(checks.values()) else 1


class _EmptyTraceError(Exception):
    pass


def _load_trace(path: str):
    from repro.observability import read_trace

    records = read_trace(sys.stdin) if path == "-" else read_trace(path)
    if not records:
        print(f"error: trace {path} contains no records", file=sys.stderr)
        raise _EmptyTraceError(path)
    return records


def _parse_rules(specs: list[str]):
    from repro.observability import parse_fail_on

    try:
        return [parse_fail_on(spec) for spec in specs]
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc


def _cmd_trace(args) -> int:
    from repro.observability import (
        diff_traces,
        evaluate_rules,
        render_critical_path,
        render_trace_diff,
        render_trace_report,
    )

    try:
        if args.trace_command == "report":
            print(
                render_trace_report(_load_trace(args.trace_file), top=args.top),
                file=sys.stdout,
            )
            return 0
        if args.trace_command == "critical-path":
            print(render_critical_path(_load_trace(args.trace_file)), file=sys.stdout)
            return 0
        # trace diff
        rules = _parse_rules(args.fail_on)
        diff = diff_traces(_load_trace(args.baseline), _load_trace(args.current))
    except _EmptyTraceError:
        return 1
    violations = evaluate_rules(diff["stages"], rules, min_time=args.min_time) if rules else None
    print(render_trace_diff(diff, violations), file=sys.stdout)
    return 1 if violations else 0


def _cmd_bench(args) -> int:
    import os

    from repro.observability import (
        build_snapshot,
        compare_snapshots,
        read_snapshot,
        render_snapshot_comparison,
        snapshot_from_trace,
        write_snapshot,
    )

    if args.bench_command == "snapshot":
        entries = []
        for path in args.traces:
            name = os.path.splitext(os.path.basename(path))[0]
            try:
                entries.append(snapshot_from_trace(_load_trace(path), name))
            except _EmptyTraceError:
                return 1
        write_snapshot(build_snapshot(args.tag, entries), args.output)
        print(
            f"snapshot of {len(entries)} benchmark(s) written to {args.output}",
            file=sys.stderr,
        )
        return 0
    # bench compare
    rules = _parse_rules(args.fail_on)
    try:
        baseline = read_snapshot(args.baseline)
        current = read_snapshot(args.current)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    comparison = compare_snapshots(baseline, current, rules, min_time=args.min_time)
    print(render_snapshot_comparison(comparison), file=sys.stdout)
    return 1 if comparison["violations"] else 0


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    from repro.observability import configure_logging

    args = build_parser().parse_args(argv)
    configure_logging(args.log_level)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "autoscale":
        return _cmd_autoscale(args)
    if args.command == "serve-bench":
        return _cmd_serve_bench(args)
    return _cmd_analyze(args)


if __name__ == "__main__":
    raise SystemExit(main())
