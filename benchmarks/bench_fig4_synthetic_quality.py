"""Figure 4: DBI and ASE on synthetic data for DASC / SC / PSC / NYST.

The paper varies the synthetic dataset size and reports Davies-Bouldin
index (panel a) and average squared error (panel b): DASC stays close to SC
while PSC and NYST sit visibly above SC on ASE (~30% / ~40% in the paper).
The workload is 32 moderately separated 64-d clusters — hard enough that
the baselines' approximations cost cluster tightness. DASC runs with the
eigengap + refine-to-K extensions (without them its quality drifts above
SC's at larger N; recorded in EXPERIMENTS.md).
"""

from benchmarks._harness import run_once
from repro.experiments import figure4

SIZES = [2**10, 2**11, 2**12]


def test_figure4_dbi_and_ase(benchmark):
    result = run_once(benchmark, figure4)
    print("\n" + result.render())
    dbi = result.data["dbi"]
    ase = result.data["ase"]

    import numpy as np

    # Shape criteria (Figure 4): DASC tracks SC on both metrics; PSC and
    # NYST sit visibly above SC on ASE (paper: ~30% and ~40%). PSC's
    # per-size numbers are not monotone in N (its t-NN graph is nearly
    # disconnected at these sizes), so the baselines are held to aggregate
    # criteria, DASC to per-size ones.
    for n in dbi["SC"]:
        assert abs(dbi["DASC"][n] - dbi["SC"][n]) < 0.3
        assert abs(ase["DASC"][n] - ase["SC"][n]) / max(ase["SC"][n], 1e-9) < 0.15
    sc_sizes = list(ase["SC"])
    psc_ratio = np.mean([ase["PSC"][n] / ase["SC"][n] for n in sc_sizes])
    nyst_ratio = np.mean([ase["NYST"][n] / ase["SC"][n] for n in sc_sizes])
    assert psc_ratio > 1.15
    assert nyst_ratio > 1.1
    # DBI stays in a stable band across sizes (the paper: ~1-1.3; ours
    # depends on the blob geometry but must not blow up with N).
    dd = [dbi["DASC"][n] for n in SIZES]
    assert max(dd) / min(dd) < 1.5
    # The baselines' gap persists across the sweep, including the sizes SC
    # cannot reach (majority criterion for the noisy PSC).
    assert all(ase["NYST"][n] >= ase["DASC"][n] for n in SIZES)
    assert sum(ase["PSC"][n] >= ase["DASC"][n] for n in SIZES) >= len(SIZES) - 1
