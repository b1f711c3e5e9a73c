"""Fast self-test of the benchmark at toy sizes (under a minute on one core).

Run from the repository root::

    python3 perfbench/selftest.py

On every workload, untraced and traced, it checks that every metric named in
``BENCHMARK.json`` is printed with its unit, that a healthy run fails no
operation, that the traced replica is faithful and that the layers the
workload exercises read non-zero. It then checks that a corrupted output
(permuted replay labels) is counted in ``error_rate``, and that the
benchmark exits non-zero, printing no result, when the program is absent.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run as bench

#: Per-layer metrics that must be non-zero when their workload is traced.
EXERCISED = {
    "fit-large-buckets": (
        "lsh.hash_s", "buckets.n_buckets", "buckets.cubic_share", "kernels.gram_s",
        "kernels.gram_mb", "spectral.eigen_s", "spectral.eigen_calls", "spectral.kmeans_s",
        "cost_model.units_per_s",
    ),
    "mr-many-buckets": (
        "dasc_mr.submit_s", "mapreduce.map_s", "mapreduce.reduce_s", "mapreduce.map_tasks",
        "mapreduce.reduce_tasks", "mapreduce.shuffle_records", "storage.put_s", "storage.puts",
        "sim_makespan", "spectral.kmeans_calls", "cost_model.units_per_s",
        "serving.hash_s", "serving.embed_s", "serving.route_exact", "serving.export_s",
        "serving.store_s", "low.p50_ms", "high.p99_ms", "capacity_rps", "agree",
    ),
}


def check_line(spec: dict, name: str, trace: int, run, values: dict) -> list:
    problems = []
    line = json.loads(json.dumps(bench.result_line(spec, run, values, trace)))
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{name}: result keys {sorted(line)}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in wanted:
        got = line["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            problems.append(f"{name} trace={trace}: {metric['name']} missing or without its unit")
        elif not trace and not got["value"] > 0:
            problems.append(f"{name}: end-to-end {metric['name']} reads {got['value']}")
    if line["failed"] or not line["correct"] or line["attempted"] < 1:
        problems.append(f"{name} trace={trace}: {line['failed']}/{line['attempted']} failed: {run.notes}")
    if trace:
        if values.get("trace.faithful") != 1.0:
            problems.append(f"{name}: traced replica is not faithful")
        for metric in EXERCISED[name]:
            if not values.get(metric, 0.0) > 0:
                problems.append(f"{name}: {metric} reads {values.get(metric)} on a traced run")
    return problems


def refuses_without_program() -> list:
    """The benchmark must fail, printing no result, beside no program."""
    bare = bench.ROOT / "perfbench" / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    for source in (bench.ROOT / "perfbench").glob("*.py"):
        shutil.copy(source, bare / "perfbench")
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mr-many-buckets", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"bare checkout: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    bench.pin_environment()
    sys.path.insert(0, str(bench.ROOT / "src"))
    import serve
    import workloads

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in bench.WORKLOADS:
        for trace in (0, 1):
            run, values, _ = bench.run_workload(name, 0, 1.0, trace, scale=workloads.TOY)
            problems += check_line(spec, name, trace, run, values)
            print(f"{name} trace={trace}: {run.attempted} operations, {run.failed} failed")

    run = serve.serve_mixed(0, 1.0, workloads.TOY, corrupt="replay")
    if not run.failed >= 1:
        problems.append("permuted replay labels were not counted as a failed operation")
    print(f"corrupted replay: error_rate {run.failed / run.attempted:.4g}")
    problems += refuses_without_program()

    for problem in problems:
        print("PROBLEM:", problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
