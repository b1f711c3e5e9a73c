"""Command-line interface.

Five subcommands, one of them with subcommands of its own:

* ``repro cluster`` — run DASC (or SC/PSC/NYST) on a CSV of feature rows
  and write a label column; prints accuracy when a label column is given.
* ``repro generate`` — emit a synthetic dataset (blobs / uniform /
  wikipedia) as CSV for experimentation.
* ``repro analyze`` — print the paper's analytic curves (Figure 1 / 2
  models) for a chosen dataset size.
* ``repro verify`` — the end-to-end drill, the differential verification
  harness: one seeded workload through serial vs process-pool
  ``DASC.fit``, local vs MapReduce DASC, crash-resumed (with and without
  a corrupted checkpoint) vs uninterrupted job flows, streaming vs batch,
  fit vs served labels and the iterative vs dense eigensolver, each
  bit-identical, plus DASC-vs-exact-SC quality gates (Section 5.3), with
  stage-boundary invariant checks armed; exits non-zero on any failure.
* ``repro trace report`` — render a recorded JSON-lines trace as the
  per-stage timing breakdown of Section 5.6 plus the fault ledger.
* ``repro trace critical-path`` — the trace-analysis plane: wall-clock
  drill-down, per-phase simulated critical path with bottleneck-node and
  straggler attribution, node utilization, and parallel efficiency.
* ``repro trace diff`` — align two traces stage-by-stage and itemize the
  deltas: per-stage times and calls, new and vanished stages, the
  fault-ledger delta and the schedule summary.

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
        "diff", help="align two traces stage-by-stage and report the deltas"
    )
    p_diff.add_argument("baseline", help="baseline JSON-lines trace path")
    p_diff.add_argument("current", help="current JSON-lines trace path")
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


class _EmptyTraceError(Exception):
    pass


def _load_trace(path: str):
    from repro.observability import read_trace

    records = read_trace(sys.stdin) if path == "-" else read_trace(path)
    if not records:
        print(f"error: trace {path} contains no records", file=sys.stderr)
        raise _EmptyTraceError(path)
    return records


def _cmd_trace(args) -> int:
    from repro.observability import (
        diff_traces,
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
        diff = diff_traces(_load_trace(args.baseline), _load_trace(args.current))
    except _EmptyTraceError:
        return 1
    print(render_trace_diff(diff), file=sys.stdout)
    return 0


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
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_analyze(args)


if __name__ == "__main__":
    raise SystemExit(main())
