"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit-large-buckets --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the traced replica and prints the per-layer metrics. The names and
units of both sets are read from ``BENCHMARK.json``. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Workload name -> function name in ``workloads`` (untraced) and ``traced``.
WORKLOADS = {"fit-large-buckets": "fit_large", "mr-many-buckets": "mr_many"}
#: BLAS/OpenMP threads per workload process: one core, on any machine.
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
#: The program's own switches; cleared so that its defaults are measured.
PROGRAM_VARS = ("REPRO_N_JOBS", "REPRO_DATA_PLANE", "REPRO_VALIDATE", "REPRO_TRACE_DIR", "REPRO_BENCH_DIR")
DEFAULT_SEED = 0
#: A seed kept out of tuning, for checking that a claim holds on new inputs.
HELD_OUT_SEED = 7919


def pin_environment() -> dict:
    """Pin threads and clear the program's switches; must run before numpy loads.

    Returns the program variables that were set, so they can be recorded.
    """
    cleared = {name: os.environ.pop(name) for name in PROGRAM_VARS if name in os.environ}
    for name in THREAD_VARS:
        os.environ[name] = str(THREADS)
    return cleared


def environment(cleared: dict) -> dict:
    """Versions and resources recorded with every result."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": THREADS,
        "cleared_env": cleared,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, scale=None):
    """Run one workload in this process; returns ``(run, values, records)``.

    ``values`` holds the measured metrics of the requested kind; ``records``
    the trace records (empty with tracing off).
    """
    import workloads

    scale = scale or workloads.FULL
    # The replica imports the program's internal modules; the untraced run
    # loads only what it measures.
    module = importlib.import_module("traced" if trace else "workloads")
    fn = getattr(module, WORKLOADS[name])
    if trace:
        run, values, records = fn(seed, seconds, scale)
        values = {**run.layer, **values}
    else:
        run, records = fn(seed, seconds, scale), []
        values = dict(run.metrics)
    values["error_rate"] = run.failed / run.attempted
    return run, values, records


def result_line(spec: dict, run, values: dict, trace: int) -> dict:
    """The closing JSON object: every metric of the requested kind, with its unit."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    unknown = set(values) - names - ({"error_rate"} if not trace else set())
    if unknown:
        raise KeyError(f"measured metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0) if trace else values[m["name"]]),
                    "unit": m["unit"]}
        for m in wanted
    }
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def write_trace(path: Path, records: list, meta: dict) -> None:
    from repro.observability import JsonLinesSink

    path.parent.mkdir(parents=True, exist_ok=True)
    sink = JsonLinesSink(path)
    sink.emit({"type": "meta", "seq": -1, "attributes": meta})
    for record in records:
        sink.emit(record)
    sink.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cleared = pin_environment()
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no program to measure under {ROOT} (src/repro or BENCHMARK.json missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run, values, records = run_workload(args.workload, args.seed, args.seconds, args.trace)
    env = environment(cleared)
    print(f"workload {args.workload}  seed {args.seed} (default {DEFAULT_SEED}, held out "
          f"{HELD_OUT_SEED})  seconds {args.seconds:g}  trace {args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for note in run.notes:
        print(note)
    if records:
        from repro.observability import render_trace_report

        path = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}.trace.jsonl"
        write_trace(path, records, {"workload": args.workload, "seed": args.seed, **env})
        print(render_trace_report(records, top=25))
        print(f"trace written to {path.relative_to(ROOT)}")
    for name, value in sorted({**run.layer, **values}.items()):
        print(f"  {name} = {value:.6g}")
    print(json.dumps(result_line(spec, run, values, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
