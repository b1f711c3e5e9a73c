"""The workloads, measured with tracing off, and their checks.

Each workload function runs in the calling process against the program's
defaults and returns a :class:`Run`: the end-to-end metrics, the operations
attempted and failed, human-readable notes, and the objects the traced
replica (:mod:`traced`) compares itself against. ``src/`` must be on
``sys.path`` before this module is imported. The module uses only the
program's top-level entry points, so the gated runs do not depend on its
internals.

An operation is one labelling call — a ``DASC.fit``, a
``DistributedDASC.run``, a served request, the training replay or a set-up —
or one output check of a whole run. It fails when any check on it fails,
including a determinism mismatch against the first run of the invocation.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import FIT_LARGE, MR_MANY, BlobSpec, make_points
from repro.core import DASC, DASCConfig
from repro.dasc_mr import DistributedDASC
from repro.metrics import normalized_mutual_info

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Points per map split of ``DistributedDASC``: Table 3's 16384 points over 256 splits.
SPLIT_SIZE = 64


@dataclass(frozen=True)
class Scale:
    """Sizes, rates and quality floors of one benchmark configuration.

    ``FULL`` is what the benchmark measures; the self-test runs ``TOY``.
    """

    fit: BlobSpec = FIT_LARGE
    fit_k: int = 8
    mr: BlobSpec = MR_MANY
    mr_k: int = 1024
    mr_bits: int = 18
    n_nodes: int = 16
    low_rps: float = 200.0
    high_rps: float = 500.0
    import_samples: int = 12
    setup_repeats: int = 3
    fit_nmi_floor: float = 0.95
    mr_nmi_floor: float = 0.90
    serve_nmi_floor: float = 0.85


FULL = Scale()
TOY = Scale(
    fit=BlobSpec(n_points=384, n_centres=4, n_features=8, spread=0.03, centre_seed=14),
    fit_k=4,
    mr=BlobSpec(n_points=512, n_centres=32, n_features=8, spread=0.02, centre_seed=6),
    mr_k=32,
    mr_bits=8,
    n_nodes=4,
    low_rps=100.0,
    high_rps=200.0,
    import_samples=2,
    setup_repeats=2,
    fit_nmi_floor=0.5,
    mr_nmi_floor=0.5,
    serve_nmi_floor=0.3,
)


@dataclass
class Run:
    """What one workload invocation measured."""

    metrics: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)   # per-layer values measured untraced
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    keep: dict = field(default_factory=dict)    # objects the traced replica reuses

    def operation(self, name: str, failures: list) -> bool:
        """Count one operation; it fails when any of its checks failed."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.notes.append(f"FAILED {name}: " + "; ".join(failures))
        return not failures


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


class ImportClock:
    """Wall time of a fresh interpreter importing ``modules``, sampled over a run.

    Imports are cached per process, so each sample is its own child process;
    it inherits the pinned thread environment and is waited for. Host speed
    drifts over tens of seconds, so the ``samples`` are due at evenly spaced
    moments of the ``seconds`` a run measures, not back to back.
    """

    def __init__(self, modules: list, samples: int, seconds: float):
        self.code = "import " + ", ".join(modules)
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        t0 = time.perf_counter()
        self.due = [t0 + i * seconds / samples for i in range(samples)]
        self.times: list = []

    def _sample(self) -> None:
        self.due.pop(0)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", self.code], env=self.env, cwd=ROOT, check=True)
        self.times.append(time.perf_counter() - t0)

    def take_due(self) -> None:
        """Take every sample whose moment has come."""
        while self.due and time.perf_counter() >= self.due[0]:
            self._sample()

    def finish(self) -> None:
        """Take the samples still outstanding."""
        while self.due:
            self._sample()


def mr_config(scale: Scale) -> DASCConfig:
    """Table 3's configuration, with the signature length and K of this benchmark."""
    return DASCConfig(
        n_clusters=scale.mr_k, n_bits=scale.mr_bits, dimension_policy="top_span", min_bucket_size=4
    )


def label_checks(labels, n_clusters: int, k: int, truth, floor: float) -> tuple[list, float]:
    """Checks every fit shares; returns ``(failures, nmi)``."""
    failures = []
    labels = np.asarray(labels)
    if labels.shape != truth.shape or (labels < 0).any():
        failures.append("not every point is labelled")
    elif labels.max() >= n_clusters:
        failures.append(f"label {int(labels.max())} out of range [0, {n_clusters})")
    if n_clusters != k:
        failures.append(f"n_clusters {n_clusters} != K {k}")
    nmi = normalized_mutual_info(truth, labels) if labels.shape == truth.shape else 0.0
    if nmi < floor:
        failures.append(f"nmi {nmi:.4f} below floor {floor}")
    return failures, nmi


def repeats_of(first, current, what: str) -> list:
    """Determinism: the counts of this run must equal the first run's."""
    if first is None or first == current:
        return []
    return [f"{what} differs from the first run of this invocation"]


def _measure_loop(seconds: float, min_runs: int, imports: ImportClock):
    """Yield run indices until ``seconds`` have passed and ``min_runs`` ran.

    The import samples that fall due are taken between runs.
    """
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_runs or time.perf_counter() < deadline:
        imports.take_due()
        yield i
        i += 1
    imports.finish()


# -- fit-large-buckets ------------------------------------------------------


def fit_large(seed: int, seconds: float, scale: Scale = FULL, *, min_runs: int = 3) -> Run:
    """In-process ``DASC(K).fit`` with the default configuration.

    At least three fits: the first fit of a process is ~10% slower (fresh
    pages for the Gram blocks and LAPACK workspace), and the median of three
    leaves that out as long as the later fits agree.
    """
    run = Run()
    X, y = make_points(scale.fit, seed)
    imports = ImportClock(["repro.core", "repro.metrics"], scale.import_samples, seconds)
    times, first = [], None
    for _ in _measure_loop(seconds, min_runs, imports):
        est = DASC(scale.fit_k)
        t0 = time.perf_counter()
        est.fit(X)
        times.append(time.perf_counter() - t0)
        failures, nmi = label_checks(est.labels_, est.n_clusters_, scale.fit_k, y, scale.fit_nmi_floor)
        counts = fit_counts(est, nmi)
        failures += repeats_of(first, counts, "buckets/gram/nmi/labels")
        first = first or counts
        run.operation("DASC.fit", failures)
    run.metrics = {
        "setup_s": median(imports.times),
        "fit_s": median(times),
        "peak_rss_mb": peak_rss_mb(),
        "nmi": nmi,
    }
    run.notes.append(f"fits: {len(times)}  fit_s samples: {[round(t, 4) for t in times]}")
    run.notes.append(f"setup_s samples: {[round(t, 4) for t in imports.times]}")
    run.keep.update(X=X, labels=est.labels_, fit_times=times)
    return run


def fit_counts(est, nmi: float) -> tuple:
    """The counts of a fit that must repeat exactly between runs."""
    sizes = tuple(int(s) for s in est.buckets_.sizes)
    return (sizes, int(est.approx_kernel_.stored_entries), nmi, est.labels_.tobytes())


# -- mr-many-buckets --------------------------------------------------------


def mr_many(seed: int, seconds: float, scale: Scale = FULL, *, min_runs: int = 2) -> Run:
    """``DistributedDASC`` in Table 3's regime: many small buckets, 16 nodes."""
    run = Run()
    X, y = make_points(scale.mr, seed)
    imports = ImportClock(["repro.dasc_mr", "repro.metrics"], scale.import_samples, seconds)
    times, first = [], None
    for _ in _measure_loop(seconds, min_runs, imports):
        dasc = DistributedDASC(
            scale.mr_k, n_nodes=scale.n_nodes, config=mr_config(scale), split_size=SPLIT_SIZE
        )
        t0 = time.perf_counter()
        result = dasc.run(X)
        times.append(time.perf_counter() - t0)
        failures, nmi = label_checks(result.labels, result.n_clusters, scale.mr_k, y, scale.mr_nmi_floor)
        failures += mr_result_checks(result, X.shape[0])
        counts = mr_counts(result, nmi)
        failures += repeats_of(first, counts, "labels/buckets/counters/makespan/nmi")
        first = first or counts
        run.operation("DistributedDASC.run", failures)
    run.metrics = {
        "setup_s": median(imports.times),
        "fit_s": median(times),
        "peak_rss_mb": peak_rss_mb(),
        "nmi": nmi,
    }
    run.layer["sim_makespan"] = float(result.makespan)
    run.notes.append(
        f"runs: {len(times)}  buckets: {result.n_buckets}  sim_makespan: {result.makespan:.6g} units"
        f"  fit_s samples: {[round(t, 4) for t in times]}"
    )
    run.notes.append(f"setup_s samples: {[round(t, 4) for t in imports.times]}")
    run.keep.update(X=X, result=result, run_times=times)
    return run


def mr_result_checks(result, n_points: int) -> list:
    """No repaired labels, and counter conservation through both stages."""
    failures = []
    if result.n_repaired != 0:
        failures.append(f"{result.n_repaired} labels repaired")
    emitted = result.counters.get("stage1", {}).get("dasc", {}).get("signatures_emitted")
    if emitted != n_points:
        failures.append(f"dasc.signatures_emitted {emitted} != N {n_points}")
    reduced = result.counters.get("stage2", {}).get("dasc", {}).get("buckets_reduced")
    if reduced != result.n_buckets:
        failures.append(f"dasc.buckets_reduced {reduced} != n_buckets {result.n_buckets}")
    return failures


def mr_counts(result, nmi: float) -> tuple:
    """The counts of a distributed run that must repeat exactly between runs."""
    counters = tuple(
        (stage, group, name, value)
        for stage, groups in sorted(result.counters.items())
        for group, names in sorted(groups.items())
        for name, value in sorted(names.items())
    )
    return (result.labels.tobytes(), result.n_buckets, float(result.makespan), counters, nmi)
