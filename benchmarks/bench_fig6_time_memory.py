"""Figure 6: measured processing time and Gram-matrix memory, DASC / SC / PSC.

The paper measures wall time (6a) and kernel-matrix memory (6b) on the
Wikipedia dataset: DASC is more than an order of magnitude faster than PSC
at 2^18 and orders of magnitude lighter than SC, whose curve dies at 2^15
(PSC's at 2^18). We measure real single-core wall time over 2^9 .. 2^12
with the same early-termination structure: SC runs only while its O(N^2)
eigendecomposition stays affordable, mirroring the truncated curves. Each
time is the median of three fits, so the SC/DASC gap compares like with
like. Memory is each algorithm's Gram bytes modelled from matrix shapes at
4 bytes an entry (Eq. 12 for DASC), beside DASC's measured ``tracemalloc``
peak, which holds one Gram block at a time.
"""

from benchmarks._harness import run_once
from repro.experiments import figure6

SIZES = [2**9, 2**10, 2**11, 2**12]


def test_figure6_time_and_memory(benchmark):
    result = run_once(benchmark, figure6)
    print("\n" + result.render())
    out = result.data

    # 6(a): DASC is faster than SC everywhere SC runs, and the gap grows.
    gaps = []
    for n in out["time"]["SC"]:
        assert out["time"]["DASC"][n] < out["time"]["SC"][n]
        gaps.append(out["time"]["SC"][n] / out["time"]["DASC"][n])
    assert gaps[-1] > gaps[0]

    # 6(b): DASC memory far below SC and much flatter than SC's quadratic
    # growth.
    for n in out["mem"]["SC"]:
        assert out["mem"]["DASC"][n] < 0.7 * out["mem"]["SC"][n]
    dasc_growth = out["mem"]["DASC"][SIZES[-1]] / out["mem"]["DASC"][SIZES[0]]
    sc_growth = (SIZES[-1] / SIZES[0]) ** 2  # SC's exact quadratic factor
    assert dasc_growth < sc_growth

    # The measured DASC peak holds the largest float64 Gram block the fit
    # builds, one block at a time: at the largest size it stays below the
    # blocks' float64 bytes together. It also grows slower than SC's
    # quadratic factor.
    for n in SIZES:
        assert out["peak"]["DASC"][n] >= 8 * max(out["blocks"]["DASC"][n]) ** 2
    built = out["blocks"]["DASC"][SIZES[-1]]
    assert len(built) > 1
    assert out["peak"]["DASC"][SIZES[-1]] < 8 * sum(b * b for b in built)
    assert out["peak"]["DASC"][SIZES[-1]] / out["peak"]["DASC"][SIZES[0]] < sc_growth
