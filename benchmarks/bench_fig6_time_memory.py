"""Figure 6: measured processing time and Gram-matrix memory, DASC / SC / PSC.

The paper measures wall time (6a) and kernel-matrix memory (6b) on the
Wikipedia dataset: DASC is more than an order of magnitude faster than PSC
at 2^18 and orders of magnitude lighter than SC, whose curve dies at 2^15
(PSC's at 2^18). We measure real single-core wall time over 2^9 .. 2^12
with the same early-termination structure: SC runs only while its O(N^2)
eigendecomposition stays affordable, mirroring the truncated curves.
Memory is each algorithm's Gram bytes modelled from matrix shapes at 4 bytes
an entry (Eq. 12 for DASC), beside DASC's measured ``tracemalloc`` peak.
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

    # The measured DASC peak holds the float64 Gram blocks (twice Eq. 12's
    # 4-byte entries) and also grows slower than SC's quadratic factor.
    for n in SIZES:
        assert out["peak"]["DASC"][n] >= 2 * out["mem"]["DASC"][n]
    assert out["peak"]["DASC"][SIZES[-1]] / out["peak"]["DASC"][SIZES[0]] < sc_growth
