"""Orchestration of the Chapter-2 performance study (§2.3.2).

Measures wall-clock runtimes of the validation approaches over repeated
scenario runs and computes the overhead ratios the paper reports:

* Figures 2.1/2.2 — total overhead of each approach relative to the
  handcrafted baseline (``runtime_approach / runtime_handcrafted``).
* Figures 2.4–2.6 — slice overheads relative to the un-checked
  application (R1): interception (R1+R2)/R1, interception+extraction
  (R1+R2+R3)/R1, and search (R1+R2+R3+R4)/R1 for the plain and the
  optimized repository.
* §2.3.2 lookup-time analysis — cached repository lookup duration and its
  independence of repository size.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..core.metadata import AffectedMethod, ConstraintRegistration
from ..core.model import ConstraintType, PredicateConstraint
from ..core.repository import ConstraintRepository
from ..transport.wallclock import read_perf_counter
from .approaches import APPROACHES, ScenarioRunner
from .slices import MECHANISMS, build_slice_runner


@contextmanager
def _timed_window() -> Iterator[None]:
    """Run a timed window as ``timeit`` does, with the cyclic garbage
    collector off (after collecting what is pending).  Otherwise a
    collection owed to earlier allocations — set-up included — lands in
    whichever window happens to be running and can swamp a
    sub-millisecond measurement such as R1."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def measure_runner(runner: ScenarioRunner, runs: int, warmup: int = 2) -> float:
    """Total wall-clock seconds for ``runs`` scenario executions."""
    for _ in range(warmup):
        runner()
    # The Chapter-2 study measures *real* CPU cost of validation
    # approaches; wall-clock time is the measurement, not sim state.
    with _timed_window():
        started = read_perf_counter()
        for _ in range(runs):
            runner()
        return read_perf_counter() - started


@dataclass
class StudyResult:
    """Timings and overhead ratios for a set of approaches."""

    runs: int
    seconds: dict[str, float] = field(default_factory=dict)
    #: runtime relative to the handcrafted baseline (Fig. 2.1/2.2).
    overhead_vs_handcrafted: dict[str, float] = field(default_factory=dict)
    #: runtime relative to the un-checked application.
    overhead_vs_plain: dict[str, float] = field(default_factory=dict)

    def ranked(self) -> list[tuple[str, float]]:
        return sorted(self.overhead_vs_handcrafted.items(), key=lambda item: item[1])


def run_study(
    approach_names: Sequence[str] | None = None,
    runs: int = 30,
    warmup: int = 3,
) -> StudyResult:
    """Measure the named approaches (default: all) and compute ratios."""
    names = list(approach_names) if approach_names else list(APPROACHES)
    for required in ("no-checks", "handcrafted"):
        if required not in names:
            names.insert(0, required)
    result = StudyResult(runs=runs)
    for name in names:
        runner = APPROACHES[name].build(None)
        result.seconds[name] = measure_runner(runner, runs, warmup)
    baseline = result.seconds["handcrafted"]
    plain = result.seconds["no-checks"]
    for name, seconds in result.seconds.items():
        result.overhead_vs_handcrafted[name] = seconds / baseline
        result.overhead_vs_plain[name] = seconds / plain
    return result


@dataclass
class SliceResult:
    """Per-mechanism slice overheads relative to R1 (Figs. 2.4–2.6)."""

    runs: int
    r1_seconds: float
    #: mechanism -> stage -> seconds; stage in ("interception",
    #: "extraction", "search-plain", "search-optimized").
    seconds: dict[str, dict[str, float]] = field(default_factory=dict)

    def overhead(self, mechanism: str, stage: str) -> float:
        return self.seconds[mechanism][stage] / self.r1_seconds


def run_slice_study(runs: int = 30, warmup: int = 3) -> SliceResult:
    """Measure R2/R3/R4 for the three mechanisms."""
    plain_runner = APPROACHES["no-checks"].build(None)
    result = SliceResult(runs=runs, r1_seconds=measure_runner(plain_runner, runs, warmup))
    for mechanism in MECHANISMS:
        timings: dict[str, float] = {}
        timings["interception"] = measure_runner(
            build_slice_runner(mechanism, "interception"), runs, warmup
        )
        timings["extraction"] = measure_runner(
            build_slice_runner(mechanism, "extraction"), runs, warmup
        )
        timings["search-plain"] = measure_runner(
            build_slice_runner(mechanism, "search", lookup="linear"), runs, warmup
        )
        timings["search-optimized"] = measure_runner(
            build_slice_runner(mechanism, "search", lookup="cached"), runs, warmup
        )
        result.seconds[mechanism] = timings
    return result


def measure_lookup_time(
    classes: int = 50,
    methods_per_class: int = 25,
    lookups: int = 20000,
) -> float:
    """Average cached-lookup time in seconds (§2.3.2, ~0.25–0.52 µs).

    Builds a fully initialized caching repository of the given size and
    measures the per-lookup cost of repeated queries, following Eq. (2.2):
    the difference between runs with and without lookups divided by the
    number of lookups.
    """
    repository = ConstraintRepository(lookup="cached")
    for class_index in range(classes):
        class_name = f"Class{class_index}"
        for method_index in range(methods_per_class):
            method = f"method{method_index}"
            constraint = PredicateConstraint(
                f"{class_name}.{method}.constraint",
                lambda ctx: True,
                constraint_type=ConstraintType.INVARIANT_HARD,
            )
            repository.register(
                ConstraintRegistration(
                    constraint, (AffectedMethod(class_name, method),)
                )
            )
    # Initializing run: populate the cache for the queried keys.
    keys = [
        (f"Class{class_index}", f"method{method_index}")
        for class_index in range(classes)
        for method_index in range(0, methods_per_class, 5)
    ]
    for class_name, method in keys:
        repository.affected_constraints(class_name, method, ConstraintType.INVARIANT_HARD)
    # Timed loop with lookups vs. the same loop without: real CPU cost is
    # the quantity under study here, so wall clock is intentional.
    with _timed_window():
        started = read_perf_counter()
        index = 0
        for _ in range(lookups):
            class_name, method = keys[index]
            repository.affected_constraints(class_name, method, ConstraintType.INVARIANT_HARD)
            index = (index + 1) % len(keys)
        with_lookups = read_perf_counter() - started
    with _timed_window():
        started = read_perf_counter()
        index = 0
        for _ in range(lookups):
            class_name, method = keys[index]
            index = (index + 1) % len(keys)
        without_lookups = read_perf_counter() - started
    return max(0.0, (with_lookups - without_lookups) / lookups)
