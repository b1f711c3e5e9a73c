"""Seeded perf-smoke driver: two traced workloads distilled into a snapshot.

This is the CI half of the perf-regression pipeline and deliberately does
NOT use pytest-benchmark (CI installs only the scientific core): it runs
two fixed, seeded workloads under the tracer, distills the traces into one
schema-versioned snapshot, and exits. The committed
``benchmarks/BENCH_baseline.json`` was produced by exactly this script;
the ``perf-smoke`` CI job reruns it and gates with::

    python benchmarks/perf_smoke.py -o BENCH_ci.json --tag ci
    python -m repro.cli bench compare benchmarks/BENCH_baseline.json \
        BENCH_ci.json --fail-on '*>500%' --min-time 0.25

Thresholds are generous on purpose — shared CI runners jitter by integer
factors; the gate exists to catch order-of-magnitude regressions and
structural drift (stages appearing/vanishing, counter blow-ups), not 10%
noise. The simulated numbers in the snapshot (makespan, critical path,
task counters) are deterministic and diff exactly.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.core.config import DASCConfig  # noqa: E402
from repro.dasc_mr.driver import DistributedDASC  # noqa: E402
from repro.data.synthetic import make_blobs  # noqa: E402
from repro.observability import (  # noqa: E402
    build_snapshot,
    read_trace,
    snapshot_from_trace,
    trace_to,
    write_snapshot,
)
from repro import DASC  # noqa: E402

N_SAMPLES = 400
N_CLUSTERS = 4
N_FEATURES = 16
SEED = 0


def _workload_dasc_fit() -> None:
    X, _ = make_blobs(
        N_SAMPLES, n_clusters=N_CLUSTERS, n_features=N_FEATURES,
        cluster_std=0.03, seed=SEED,
    )
    DASC(N_CLUSTERS, seed=SEED).fit_predict(X)


def _workload_distributed_dasc() -> None:
    X, _ = make_blobs(
        N_SAMPLES, n_clusters=N_CLUSTERS, n_features=N_FEATURES,
        cluster_std=0.03, seed=SEED,
    )
    config = DASCConfig(n_clusters=N_CLUSTERS, seed=SEED)
    DistributedDASC(n_nodes=4, config=config).run(X)


WORKLOADS = {
    "dasc_fit": _workload_dasc_fit,
    "distributed_dasc": _workload_distributed_dasc,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", required=True, help="snapshot JSON output path")
    parser.add_argument("--tag", default="local", help="snapshot tag (default: local)")
    parser.add_argument(
        "--trace-dir", default=None,
        help="keep the raw JSON-lines traces in this directory "
        "(default: a temporary directory, discarded)",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        trace_dir = args.trace_dir or tmp
        os.makedirs(trace_dir, exist_ok=True)
        entries = []
        for name, workload in WORKLOADS.items():
            trace_path = os.path.join(trace_dir, f"{name}.jsonl")
            with trace_to(trace_path) as tracer:
                tracer.meta(benchmark=name, tag=args.tag, seed=SEED)
                workload()
            entries.append(snapshot_from_trace(read_trace(trace_path), name))
            print(f"ran {name}: trace {trace_path}", file=sys.stderr)
        write_snapshot(build_snapshot(args.tag, entries), args.output)
    print(f"snapshot of {len(entries)} benchmark(s) written to {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
