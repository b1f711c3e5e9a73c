"""Ablation: per-bucket cluster allocation policies and the refine step.

The paper's analysis assumes K_i = K/B per bucket but never pins the rule
down. This bench compares the implemented policies — proportional, fixed,
and the eigengap extension — with and without the refine-to-K merge,
on a workload whose buckets deliberately straddle cluster boundaries (the
failure mode proportional allocation mishandles).
"""

import numpy as np

from benchmarks._harness import print_table, run_once
from repro.core import DASC
from repro.data import make_blobs
from repro.metrics import average_squared_error, clustering_accuracy


def _workload():
    # 32 clusters at N=4096 with the default M=5: buckets cut through
    # clusters, so the allocation policy actually matters.
    return make_blobs(4096, n_clusters=32, n_features=64, cluster_std=0.09, seed=0)


def test_ablation_allocation_policy(benchmark):
    def compute():
        X, y = _workload()
        out = {}
        for policy in ("proportional", "fixed", "eigengap"):
            for refine in (True, False):
                dasc = DASC(
                    32, sigma=0.7, min_bucket_size=16, allocation=policy,
                    refine_to_k=refine, seed=0,
                )
                labels = dasc.fit_predict(X)
                out[(policy, refine)] = (
                    clustering_accuracy(y, labels),
                    average_squared_error(X, labels),
                    dasc.n_clusters_,
                )
        return out

    rows = run_once(benchmark, compute)
    print_table(
        "Ablation — allocation policy x refine-to-K",
        ["policy", "refine", "accuracy", "ASE", "clusters"],
        [
            [p, "yes" if r else "no", f"{acc:.3f}", f"{ase:.3f}", c]
            for (p, r), (acc, ase, c) in rows.items()
        ],
    )

    # Eigengap + refine is the quality frontier on this workload.
    best_acc = max(acc for acc, _, _ in rows.values())
    assert rows[("eigengap", True)][0] >= best_acc - 0.02
    # Refinement always returns exactly K clusters.
    for policy in ("proportional", "fixed", "eigengap"):
        assert rows[(policy, True)][2] == 32
    # 'fixed' without refinement over-produces clusters.
    assert rows[("fixed", False)][2] >= 32
