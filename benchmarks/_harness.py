"""Benchmark harness helpers.

Every bench module regenerates one of the paper's tables or figures. The
computation runs once through ``benchmark.pedantic`` (so ``pytest
benchmarks/ --benchmark-only`` executes it and records its wall time) and
the resulting rows/series are printed in the paper's layout — run with
``-s`` to see them. Shape assertions (who wins, monotonicity, crossovers)
are checked on the produced numbers, mirroring DESIGN.md's acceptance
criteria.

Setting ``REPRO_TRACE_DIR=<dir>`` additionally records one JSON-lines
trace per benchmark alongside the timings (view with
``repro trace report <dir>/<bench>.jsonl``, compare two runs with
``repro trace diff``). These benches regenerate the paper's results; the
performance harness that speed claims are measured with is ``perfbench/``.
"""

import os
import re

import numpy as np

from repro.observability import trace_to


def run_once(benchmark, fn):
    """Execute ``fn`` exactly once under the benchmark timer and return its result.

    When ``REPRO_TRACE_DIR`` is set, the run is traced into
    ``$REPRO_TRACE_DIR/<benchmark name>.jsonl``.
    """
    trace_dir = os.environ.get("REPRO_TRACE_DIR")
    if not trace_dir:
        return benchmark.pedantic(fn, rounds=1, iterations=1)
    os.makedirs(trace_dir, exist_ok=True)
    name = re.sub(r"[^\w.=-]+", "_", getattr(benchmark, "name", "") or fn.__name__)
    path = os.path.join(trace_dir, f"{name}.jsonl")

    def traced():
        with trace_to(path) as tracer:
            tracer.meta(benchmark=name)
            return fn()

    return benchmark.pedantic(traced, rounds=1, iterations=1)


def print_table(title: str, header: list[str], rows: list[list]):
    """Render a fixed-width table to stdout (visible with pytest -s)."""
    widths = [max(len(str(h)), max((len(str(r[i])) for r in rows), default=0)) for i, h in enumerate(header)]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))


