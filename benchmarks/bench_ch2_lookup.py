"""Chapter 2 — cached repository lookup time (§2.3.2).

The paper measures 0.25–0.52 µs per cached lookup, independent of the
number of repository entries (25–100 classes × 10–50 methods).
"""

from conftest import print_table
from repro.core import ConstraintRepository, ConstraintType, PredicateConstraint
from repro.core.metadata import AffectedMethod, ConstraintRegistration
from repro.validation import measure_lookup_time


def _populated_repository(classes: int, methods: int) -> ConstraintRepository:
    repository = ConstraintRepository(lookup="cached")
    for class_index in range(classes):
        for method_index in range(methods):
            name = f"C{class_index}.m{method_index}"
            repository.register(
                ConstraintRegistration(
                    PredicateConstraint(name, lambda ctx: True),
                    (AffectedMethod(f"C{class_index}", f"m{method_index}"),),
                )
            )
    # prime the cache
    repository.affected_constraints("C0", "m0", ConstraintType.INVARIANT_HARD)
    return repository


def test_cached_lookup_benchmark(benchmark):
    repository = _populated_repository(50, 25)
    benchmark(
        repository.affected_constraints, "C0", "m0", ConstraintType.INVARIANT_HARD
    )


def test_lookup_time_matches_paper_range(benchmark):
    """Per-lookup cost per Eq. (2.2); paper: 0.25–0.52 µs."""
    seconds = benchmark.pedantic(
        lambda: measure_lookup_time(classes=50, methods_per_class=25),
        rounds=1,
        iterations=1,
    )
    print_table(
        "§2.3.2 — cached constraint lookup",
        ["metric", "value"],
        [["lookup time (µs)", f"{seconds * 1e6:.3f}"], ["paper range (µs)", "0.25–0.52"]],
    )
    # generous envelope: same order of magnitude as the paper
    assert seconds < 5e-6


def test_lookup_time_size_independent(benchmark):
    """§2.3.2: lookup time does not depend on the repository size."""
    small = measure_lookup_time(classes=25, methods_per_class=10, lookups=8000)
    large = benchmark.pedantic(
        lambda: measure_lookup_time(classes=100, methods_per_class=50, lookups=8000),
        rounds=1,
        iterations=1,
    )
    print_table(
        "§2.3.2 — lookup time vs repository size",
        ["repository", "lookup µs"],
        [["25×10 entries", f"{small * 1e6:.3f}"], ["100×50 entries", f"{large * 1e6:.3f}"]],
    )
    # hash-table lookup: within 5x of each other despite a 20x size gap
    assert large < small * 5 + 1e-6
