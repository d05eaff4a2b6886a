"""Chapter 2 — runtime slices R1–R5 (Figs. 2.3–2.6).

Separates interception (R2), parameter extraction (R3) and repository
search (R4) overheads per mechanism.  Paper reference values:

* Fig. 2.5 (R1+R2)/R1: AspectJ 2.38 < JBoss AOP 9.25 < Java proxy 28.13.
* Fig. 2.6 (R1+R2+R3)/R1: JBoss AOP 19.5 < proxy 36.6 < AspectJ 98.3 —
  AspectJ loses its interception advantage during parameter extraction.
* Fig. 2.4 (R1+…+R4)/R1: optimized repository 65–163, plain repository
  1413–3390 (a 13.6–48× gap).
"""

import pytest

from conftest import print_table
from repro.validation import MECHANISMS, build_slice_runner, run_slice_study


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("stage", ["interception", "extraction"])
def test_slice_runtime(benchmark, mechanism, stage):
    runner = build_slice_runner(mechanism, stage)
    runner()
    benchmark(runner)


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("lookup", ["cached", "linear"], ids=["optimized", "plain"])
def test_search_slice_runtime(benchmark, mechanism, lookup):
    runner = build_slice_runner(mechanism, "search", lookup=lookup)
    runner()
    benchmark(runner)


def test_figs_2_3_to_2_6_slice_overheads(benchmark):
    """The combined slice analysis with the paper's orderings asserted."""
    result = benchmark.pedantic(lambda: run_slice_study(runs=20), rounds=1, iterations=1)

    rows = []
    for mechanism in MECHANISMS:
        rows.append(
            [
                mechanism,
                f"{result.overhead(mechanism, 'interception'):.2f}",
                f"{result.overhead(mechanism, 'extraction'):.2f}",
                f"{result.overhead(mechanism, 'search-plain'):.2f}",
                f"{result.overhead(mechanism, 'search-optimized'):.2f}",
            ]
        )
    print_table(
        "Figs 2.4–2.6 — slice overheads relative to R1",
        ["mechanism", "R2 (interception)", "R3 (+extraction)", "R4 plain", "R4 optimized"],
        rows,
    )

    r2 = {m: result.overhead(m, "interception") for m in MECHANISMS}
    r3 = {m: result.overhead(m, "extraction") for m in MECHANISMS}
    # Fig. 2.5: AspectJ is the fastest interception mechanism, the
    # reflective proxy the slowest.
    assert r2["aspectj"] < r2["jbossaop"] < r2["proxy"]
    # Fig. 2.6: parameter extraction inverts the order — AspectJ's costly
    # reflective method lookup makes it the worst.
    assert r3["jbossaop"] < r3["proxy"] < r3["aspectj"]
    # Fig. 2.4: the optimized repository reduces the search overhead by
    # an order of magnitude for every mechanism.
    for mechanism in MECHANISMS:
        plain = result.overhead(mechanism, "search-plain")
        optimized = result.overhead(mechanism, "search-optimized")
        assert plain > optimized * 5, mechanism
