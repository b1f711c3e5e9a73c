"""One function per table/figure of the paper's evaluation section.

Default parameters reproduce what the benchmark suite runs (reduced N on
measured experiments, the paper's exact ranges on analytic ones); every
knob is exposed so larger machines can push the sweeps further.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.experiments.base import ExperimentResult
from repro.observability import get_logger

log = get_logger(__name__)

__all__ = [
    "figure1",
    "figure2",
    "table1",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "table3",
    "EXPERIMENTS",
    "run_experiment",
]


def figure1(exponents=range(20, 30)) -> ExperimentResult:
    """Figure 1: analytic time/memory scalability of DASC vs SC."""
    from repro.analysis import figure1_curves

    curves = figure1_curves(exponents)
    rows = [
        [f"2^{e}", f"{dt:.1f}", f"{st:.1f}", f"{dm:.1f}", f"{sm:.1f}"]
        for e, dt, st, dm, sm in zip(
            curves["exponents"],
            curves["dasc_time_log2_hours"],
            curves["sc_time_log2_hours"],
            curves["dasc_memory_log2_kb"],
            curves["sc_memory_log2_kb"],
        )
    ]
    return ExperimentResult(
        experiment_id="fig1",
        title="Figure 1 — scalability (log2 units, 1024 machines, beta=50us)",
        header=["N", "DASC t(h)", "SC t(h)", "DASC m(KB)", "SC m(KB)"],
        rows=rows,
        data=curves,
    )


def figure2(m_values=range(5, 36, 5), size_exponents=range(20, 31)) -> ExperimentResult:
    """Figure 2: collision probability vs M (Eq. 18) for N = 1M..1G."""
    from repro.analysis import figure2_curves

    curves = figure2_curves(m_values=m_values, size_exponents=size_exponents)
    header = ["M"] + list(curves["series"].keys())
    rows = [
        [m] + [f"{curves['series'][k][i]:.4f}" for k in curves["series"]]
        for i, m in enumerate(curves["m_values"])
    ]
    return ExperimentResult(
        experiment_id="fig2",
        title="Figure 2 — P(similar points share a bucket) vs M",
        header=header,
        rows=rows,
        data=curves,
        notes=(
            "evaluated literally, Eq. 18 gives larger probabilities for larger N "
            "at fixed M; the paper's prose claims the opposite ordering"
        ),
    )


def table1(generator_exponents=(10, 11, 12, 13)) -> ExperimentResult:
    """Table 1: Wikipedia category counts, the Eq.-15 fit, and the generator."""
    from repro.analysis import fit_k_log2
    from repro.data import generate_corpus
    from repro.data.wikipedia import TABLE1_CATEGORIES

    sizes = sorted(TABLE1_CATEGORIES)
    eq15 = {n: max(1, round(17 * (math.log2(n) - 9))) for n in sizes}
    fit = fit_k_log2(sizes[:6], [TABLE1_CATEGORIES[n] for n in sizes[:6]])
    generator = {
        2**e: generate_corpus(n_documents=2**e, seed=0).n_categories
        for e in generator_exponents
    }
    rows = [
        [n, TABLE1_CATEGORIES[n], eq15[n], generator.get(n, "-")] for n in sizes
    ]
    return ExperimentResult(
        experiment_id="table1",
        title="Table 1 — Wikipedia categories vs dataset size",
        header=["N", "paper K", "Eq.15: 17(log2 N - 9)", "generator K"],
        rows=rows,
        data={"paper": dict(TABLE1_CATEGORIES), "eq15": eq15, "fit": fit, "generator": generator},
        notes=f"lower-half refit: K = {fit[0]:.1f}(log2 N - {fit[1]:.1f}), R^2 = {fit[2]:.3f}",
    )


def figure3(sizes=(2**9, 2**10, 2**11, 2**12), sc_max=2**11, *, seed=0) -> ExperimentResult:
    """Figure 3: document clustering accuracy for DASC / SC / PSC / NYST."""
    from repro import DASC, PSC, NystromSpectralClustering, SpectralClustering
    from repro.data import make_wikipedia_dataset
    from repro.metrics import clustering_accuracy

    results = {"DASC": {}, "SC": {}, "PSC": {}, "NYST": {}}
    for n in sizes:
        k = max(2, round(17 * (np.log2(n) - 9))) if n > 512 else 8
        log.info("figure3: clustering N=%d documents into K=%d categories", n, k)
        X, y = make_wikipedia_dataset(n, n_categories=k, seed=seed)
        sigma = 0.5
        results["DASC"][n] = clustering_accuracy(
            y, DASC(k, sigma=sigma, seed=seed).fit_predict(X)
        )
        # PSC's t must reach across a whole category of near-duplicate
        # tf-idf vectors or the t-NN graph shatters into cliques.
        t_nn = max(16, int(1.2 * n / k))
        results["PSC"][n] = clustering_accuracy(
            y, PSC(k, n_neighbors=t_nn, sigma=sigma, seed=seed).fit_predict(X)
        )
        results["NYST"][n] = clustering_accuracy(
            y,
            NystromSpectralClustering(
                k, n_landmarks=min(256, n // 2), sigma=sigma, seed=seed
            ).fit_predict(X),
        )
        if n <= sc_max:
            results["SC"][n] = clustering_accuracy(
                y, SpectralClustering(k, sigma=sigma, seed=seed).fit_predict(X)
            )
    rows = [
        [f"2^{int(np.log2(n))}"]
        + [f"{results[a][n]:.3f}" if n in results[a] else "-" for a in ("DASC", "SC", "PSC", "NYST")]
        for n in sizes
    ]
    return ExperimentResult(
        experiment_id="fig3",
        title="Figure 3 — Wikipedia clustering accuracy",
        header=["N", "DASC", "SC", "PSC", "NYST"],
        rows=rows,
        data=results,
        notes="SC stops at its O(N^2) size wall, as in the paper",
    )


def figure4(sizes=(2**10, 2**11, 2**12), sc_max=2**11, *, seed=0) -> ExperimentResult:
    """Figure 4: DBI and ASE on synthetic data for the four algorithms."""
    from repro import DASC, PSC, NystromSpectralClustering, SpectralClustering
    from repro.data import make_blobs
    from repro.metrics import average_squared_error, davies_bouldin_index

    dbi = {a: {} for a in ("DASC", "SC", "PSC", "NYST")}
    ase = {a: {} for a in ("DASC", "SC", "PSC", "NYST")}
    k = 32
    sigma = 0.7
    for n in sizes:
        X, _ = make_blobs(n, n_clusters=k, n_features=64, cluster_std=0.09, seed=seed)
        fits = {
            "DASC": DASC(
                k, sigma=sigma, min_bucket_size=16, allocation="eigengap", seed=seed
            ).fit_predict(X),
            "PSC": PSC(k, n_neighbors=10, sigma=sigma, seed=seed).fit_predict(X),
            "NYST": NystromSpectralClustering(
                k, n_landmarks=2 * k, sigma=sigma, seed=seed
            ).fit_predict(X),
        }
        if n <= sc_max:
            fits["SC"] = SpectralClustering(k, sigma=sigma, seed=seed).fit_predict(X)
        for algo, labels in fits.items():
            dbi[algo][n] = davies_bouldin_index(X, labels)
            ase[algo][n] = average_squared_error(X, labels)
    rows = []
    for metric_name, metric in (("DBI", dbi), ("ASE", ase)):
        for n in sizes:
            rows.append(
                [metric_name, f"2^{int(np.log2(n))}"]
                + [f"{metric[a][n]:.3f}" if n in metric[a] else "-" for a in ("DASC", "SC", "PSC", "NYST")]
            )
    return ExperimentResult(
        experiment_id="fig4",
        title="Figure 4 — DBI (a) and ASE (b), lower is better",
        header=["metric", "N", "DASC", "SC", "PSC", "NYST"],
        rows=rows,
        data={"dbi": dbi, "ase": ase},
        notes="DASC runs with the eigengap+refine extensions (see EXPERIMENTS.md)",
    )


def figure5(sizes=(1024, 2048, 4096), bit_sweep=(2, 4, 6, 8, 10, 12), *, sigma=0.4, seed=0) -> ExperimentResult:
    """Figure 5: Fnorm(approx)/Fnorm(full) vs bucket count."""
    from repro.core import DASC
    from repro.data import make_blobs
    from repro.kernels import GaussianKernel, gram_matrix
    from repro.metrics import fnorm_ratio

    sweeps = {}
    for n in sizes:
        X, _ = make_blobs(n, n_clusters=64, n_features=64, cluster_std=0.06, seed=1)
        full = gram_matrix(X, GaussianKernel(sigma), zero_diagonal=True)
        series = []
        for n_bits in bit_sweep:
            dasc = DASC(sigma=sigma, n_bits=n_bits, min_bucket_size=1, seed=seed)
            approx = dasc.transform(X)
            series.append((dasc.buckets_.n_buckets, fnorm_ratio(approx, full)))
        sweeps[n] = series
    rows = [[n, b, f"{r:.3f}"] for n, series in sweeps.items() for b, r in series]
    return ExperimentResult(
        experiment_id="fig5",
        title="Figure 5 — Fnorm(approx)/Fnorm(full)",
        header=["N", "buckets", "ratio"],
        rows=rows,
        data=sweeps,
    )


def _median_time(fit, repeats: int = 3):
    """``(median seconds, last result)`` of ``repeats`` calls of ``fit``."""
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fit()
        times.append(time.perf_counter() - start)
    return float(np.median(times)), result


def figure6(sizes=(2**9, 2**10, 2**11, 2**12), sc_max=2**11, *, seed=0) -> ExperimentResult:
    """Figure 6: measured wall time and Gram memory for DASC / SC / PSC.

    Each time is the median of three fits. The ``m`` columns model Gram
    memory from matrix shapes at 4 bytes an entry (Eq. 12). ``peak DASC``
    is measured: the ``tracemalloc`` peak of one more ``DASC.fit`` with the
    same seed, run after every timed fit. ``data["blocks"]["DASC"]`` lists
    the sizes of the Gram blocks the fit built (one per solved bucket; the
    fit holds one at a time).
    """
    from repro import DASC, PSC, SpectralClustering
    from repro.data import make_wikipedia_dataset
    from repro.utils.memory import dense_matrix_bytes, traced_peak

    out = {
        "time": {a: {} for a in ("DASC", "SC", "PSC")},
        "mem": {a: {} for a in ("DASC", "SC", "PSC")},
        "peak": {"DASC": {}},
        "blocks": {"DASC": {}},
    }
    sigma = 0.5
    inputs = {}
    for n in sizes:
        k = max(4, round(17 * (np.log2(n) - 9))) if n > 512 else 8
        X, _ = make_wikipedia_dataset(n, n_categories=k, seed=seed)
        inputs[n] = k, X

        out["time"]["DASC"][n], dasc = _median_time(lambda: DASC(k, sigma=sigma, seed=seed).fit(X))
        out["mem"]["DASC"][n] = dasc.approx_kernel_.nbytes
        out["blocks"]["DASC"][n] = [
            int(idx.shape[0])
            for idx, bucket in zip(dasc.approx_kernel_.bucket_indices, dasc.bucket_clusterings_)
            if bucket.mode == "nystrom"
        ]

        out["time"]["PSC"][n], psc = _median_time(
            lambda: PSC(k, n_neighbors=16, sigma=sigma, seed=seed).fit(X)
        )
        out["mem"]["PSC"][n] = psc.memory_.total

        if n <= sc_max:
            out["time"]["SC"][n], _ = _median_time(
                lambda: SpectralClustering(k, sigma=sigma, seed=seed).fit(X)
            )
            out["mem"]["SC"][n] = dense_matrix_bytes(n)
    # Traced after every timing, so the timed fits run in the same order
    # and state as without this column.
    for n, (k, X) in inputs.items():
        _, out["peak"]["DASC"][n] = traced_peak(lambda: DASC(k, sigma=sigma, seed=seed).fit(X))
    rows = [
        [f"2^{int(np.log2(n))}"]
        + [f"{out['time'][a][n]:.2f}" if n in out["time"][a] else "-" for a in ("DASC", "SC", "PSC")]
        + [f"{out['mem'][a][n] / 1024:.0f}" if n in out["mem"][a] else "-" for a in ("DASC", "SC", "PSC")]
        + [f"{out['peak']['DASC'][n] / 1024:.0f}"]
        for n in sizes
    ]
    return ExperimentResult(
        experiment_id="fig6",
        title="Figure 6 — measured time (s), Eq.-12 Gram memory and measured DASC peak (KB)",
        header=["N", "t DASC", "t SC", "t PSC", "m DASC", "m SC", "m PSC", "peak DASC"],
        rows=rows,
        data=out,
        notes="PSC undercharged at laptop N (no MPI costs); see EXPERIMENTS.md",
    )


def table3(nodes=(16, 32, 64), *, n_documents=16384, seed=5) -> ExperimentResult:
    """Table 3: elasticity of distributed DASC on the simulated cloud."""
    from repro.analysis import BETA_SECONDS
    from repro.core import DASCConfig
    from repro.dasc_mr import DistributedDASC
    from repro.data import make_wikipedia_dataset
    from repro.metrics import clustering_accuracy

    X, y = make_wikipedia_dataset(
        n_documents, n_categories=1024, n_features=24, n_topic_terms=24,
        terms_per_category=3, doc_length=120, seed=seed,
    )
    k = len(np.unique(y))
    results = {}
    for n_nodes in nodes:
        log.info("table3: running distributed DASC on %d simulated nodes", n_nodes)
        cfg = DASCConfig(n_bits=24, dimension_policy="top_span", min_bucket_size=4, seed=seed)
        res = DistributedDASC(k, n_nodes=n_nodes, config=cfg, split_size=64).run(X)
        results[n_nodes] = {
            "accuracy": clustering_accuracy(y, res.labels),
            "memory_kb": res.gram_bytes / 1024,
            "hours": res.makespan * BETA_SECONDS / 3600.0,
            "buckets": res.n_buckets,
        }
    rows = [
        [n, f"{results[n]['accuracy']:.1%}", f"{results[n]['memory_kb']:.0f}",
         f"{results[n]['hours']:.5f}", results[n]["buckets"]]
        for n in nodes
    ]
    return ExperimentResult(
        experiment_id="table3",
        title="Table 3 — DASC on the simulated Amazon cloud",
        header=["nodes", "accuracy", "memory (KB)", "time (h, beta=50us)", "buckets"],
        rows=rows,
        data=results,
    )


#: Registry: experiment id -> zero-argument callable with bench defaults.
EXPERIMENTS = {
    "fig1": figure1,
    "fig2": figure2,
    "fig3": figure3,
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
    "table1": table1,
    "table3": table3,
}


def run_experiment(experiment_id: str) -> ExperimentResult:
    """Run one registered experiment by id with its default parameters."""
    try:
        fn = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    log.info("running experiment %s", experiment_id)
    start = time.perf_counter()
    result = fn()
    log.info("experiment %s finished in %.2fs", experiment_id, time.perf_counter() - start)
    return result
