"""Ablations of the DASC design choices (beyond the paper's reported figures).

The paper motivates several specific choices without isolating them:
span-weighted dimension selection (Eq. 4), the histogram-valley threshold
(Eq. 5), the P = M - 1 merge rule (Eq. 6) and the signature length M. These
benches vary one choice at a time on a fixed workload and report accuracy,
bucket count, and kernel-memory savings, so the contribution of each
ingredient is visible.
"""

import numpy as np

from benchmarks._harness import print_table, run_once
from repro.core import DASC
from repro.data import make_blobs
from repro.metrics import clustering_accuracy


def _workload():
    return make_blobs(2048, n_clusters=8, n_features=64, cluster_std=0.05, seed=3)


def _run(X, y, **options):
    dasc = DASC(8, sigma=0.6, seed=0, **options)
    acc = clustering_accuracy(y, dasc.fit_predict(X))
    kept = dasc.approx_kernel_.stored_entries / len(X) ** 2
    return acc, dasc.buckets_.n_buckets, kept


def test_ablation_dimension_policy(benchmark):
    """Eq. 4's span weighting vs uniform vs deterministic top-span."""

    def compute():
        X, y = _workload()
        return {
            policy: _run(X, y, n_bits=6, dimension_policy=policy)
            for policy in ("span_weighted", "top_span", "uniform")
        }

    rows = run_once(benchmark, compute)
    print_table(
        "Ablation — dimension selection policy",
        ["policy", "accuracy", "buckets", "kernel kept"],
        [[p, f"{a:.3f}", b, f"{k:.1%}"] for p, (a, b, k) in rows.items()],
    )
    for policy, (acc, _, _) in rows.items():
        assert acc > 0.6, policy


def test_ablation_threshold_policy(benchmark):
    """Eq. 5's density-valley threshold vs the balanced median split."""

    def compute():
        X, y = _workload()
        return {
            policy: _run(X, y, n_bits=6, threshold_policy=policy)
            for policy in ("histogram_valley", "median")
        }

    rows = run_once(benchmark, compute)
    print_table(
        "Ablation — threshold policy",
        ["policy", "accuracy", "buckets", "kernel kept"],
        [[p, f"{a:.3f}", b, f"{k:.1%}"] for p, (a, b, k) in rows.items()],
    )
    # The valley rule cuts between clusters, so it should not lose to the
    # blind median split on clustered data.
    assert rows["histogram_valley"][0] >= rows["median"][0] - 0.05


def test_ablation_merge_rule(benchmark):
    """P sweep: no merging (P=M) vs the paper's P=M-1, star vs transitive."""

    def compute():
        X, y = _workload()
        out = {}
        out["no merge (P=M)"] = _run(X, y, n_bits=6, min_shared_bits=6)
        out["star P=M-1"] = _run(X, y, n_bits=6, merge_strategy="star")
        out["transitive P=M-1"] = _run(X, y, n_bits=6, merge_strategy="transitive")
        out["star P=M-2"] = _run(X, y, n_bits=6, min_shared_bits=4)
        return out

    rows = run_once(benchmark, compute)
    print_table(
        "Ablation — bucket merge rule",
        ["rule", "accuracy", "buckets", "kernel kept"],
        [[p, f"{a:.3f}", b, f"{k:.1%}"] for p, (a, b, k) in rows.items()],
    )
    # Merging coarsens: bucket counts must be non-increasing with merge
    # aggressiveness, and transitive merges at least as hard as star.
    assert rows["no merge (P=M)"][1] >= rows["star P=M-1"][1]
    assert rows["star P=M-1"][1] >= rows["transitive P=M-1"][1]
    assert rows["star P=M-1"][1] >= rows["star P=M-2"][1]


def test_ablation_signature_length(benchmark):
    """The accuracy/memory tradeoff as M grows (the paper's central knob)."""

    def compute():
        X, y = _workload()
        return {m: _run(X, y, n_bits=m) for m in (2, 4, 6, 8, 10)}

    rows = run_once(benchmark, compute)
    print_table(
        "Ablation — signature length M",
        ["M", "accuracy", "buckets", "kernel kept"],
        [[m, f"{a:.3f}", b, f"{k:.1%}"] for m, (a, b, k) in rows.items()],
    )
    kept = [rows[m][2] for m in (2, 4, 6, 8, 10)]
    # More bits -> finer buckets -> smaller kernel (weakly monotone trend).
    assert kept[-1] <= kept[0]
