#!/usr/bin/env python3
"""Repository benchmark: wall-clock and modelled cost per op.

Run from the root of a checkout::

    python3 perfbench/run.py --workload healthy-write --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run measures one workload for ``--seconds`` seconds, checks the
program's outputs, prints a report, and prints one JSON object as its last
line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
half the time untraced and half with span wrappers around each layer's
entry points, and reports the per-layer metrics.  ``--workload all`` runs
every workload both ways in child processes and also checks that the
modelled figures of the two runs are identical.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "out"
#: Spans kept for the output file; the per-layer figures use every span.
KEEP_SPANS = 200_000

clock = time.perf_counter


class SetupError(RuntimeError):
    """The program under test cannot be imported from this checkout."""


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no program sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported repro from {repro.__file__}, not from {package}")


def percentile(samples: list[float], pct: int) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rate(result: Any) -> float:
    return result.ops / result.timed_s


#: What ``calibrate`` takes on the reference machine at its fast speed.
CALIBRATION_REF_S = 0.0026


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: how fast the machine runs now."""
    started = clock()
    table: dict[int, int] = {}
    for index in range(20_000):
        key = index % 500
        table[key] = table.get(key, 0) + index
    return clock() - started


def scaled_rate(result: Any) -> float:
    return rate(result) * result.slowness


def scaled(samples: list[float], result: Any) -> list[float]:
    return [sample / result.slowness for sample in samples]


def run_rounds(workload: Any, timer: Any, seconds: float) -> list[Any]:
    """Rounds back to back until ``seconds`` of wall time have passed.

    The calibration loop runs just before and just after each round, and
    the round's ``slowness`` is their mean over ``CALIBRATION_REF_S``: the
    shared machine's speed swings by up to a factor of two for seconds to
    minutes at a time, and wall figures divided by it are what the round
    would have measured at the reference speed.  Each round's cyclic
    garbage is collected before the next starts, so no round pays for
    collecting another's cluster.
    """
    rounds = []
    deadline = clock() + seconds
    while True:
        before = calibrate()
        result = workload.run_round(timer)
        result.slowness = (before + calibrate()) / 2 / CALIBRATION_REF_S
        result.peak_rss_mb = peak_rss_mb()
        rounds.append(result)
        gc.collect()
        if clock() >= deadline:
            return rounds


def fingerprint(result: Any) -> str:
    return hashlib.sha256(result.fingerprint().encode()).hexdigest()


def check_modelled(workload: Any, reference: Any, rounds: list[Any], what: str) -> None:
    """Sim rounds replay one schedule, so their modelled figures are equal."""
    from workloads import CheckFailed

    if workload.transport != "sim":
        return
    want = reference.fingerprint()
    for index, result in enumerate(rounds):
        if result.fingerprint() != want:
            raise CheckFailed(
                f"{what} round {index}: modelled figures differ from the first round\n"
                f"  first: {want}\n  this:  {result.fingerprint()}"
            )


def end_to_end(workload: Any, rounds: list[Any]) -> tuple[dict[str, Any], list[str]]:
    writes = [s for r in rounds for s in scaled(r.write_s, r)]
    reads = [s for r in rounds for s in scaled(r.read_s, r)]
    reconciles = [s for r in rounds for s in scaled(r.reconcile_s, r)]
    ops = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    modelled = [r.modelled_ops.seconds * 1e3 / r.ops for r in rounds]
    slowness = [r.slowness for r in rounds]
    metrics: dict[str, tuple[float, str, str]] = {
        "setup_s": (
            statistics.median(r.setup_s / r.slowness for r in rounds),
            "s",
            f"median of {len(rounds)} set-ups",
        ),
        "ops_per_s": (
            statistics.median(scaled_rate(r) for r in rounds),
            "ops/s",
            f"median of {len(rounds)} rounds; {ops} ops in all",
        ),
    }
    metrics["write_p50_us"] = (percentile(writes, 50) * 1e6, "us", f"{len(writes)} writes")
    metrics["write_p99_us"] = (percentile(writes, 99) * 1e6, "us", f"{len(writes)} writes")
    metrics["read_p50_us"] = (percentile(reads, 50) * 1e6, "us", f"{len(reads)} reads")
    metrics["read_p99_us"] = (percentile(reads, 99) * 1e6, "us", f"{len(reads)} reads")
    metrics["modelled_ms_per_op"] = (
        statistics.median(modelled),
        "ms",
        f"{'exact, every round equal' if workload.transport == 'sim' else 'CostLedger charges, median'} "
        f"over {len(rounds)} rounds",
    )
    # Read after the first measured round: every round is the same, and
    # later the latency samples the run keeps would count too, more of them
    # the faster the program runs.
    metrics["peak_rss_mb"] = (rounds[0].peak_rss_mb, "MB", "ru_maxrss after the first measured round")
    # Printed, not in the JSON: zero by design, or not defined on every workload.
    extra = [
        f"slowness            median {statistics.median(slowness):.3f}, range {min(slowness):.3f}-"
        f"{max(slowness):.3f} (wall figures above are divided by it; unscaled: "
        f"{statistics.median(rate(r) for r in rounds):.6g} ops/s, write_p50 "
        f"{percentile([s for r in rounds for s in r.write_s], 50) * 1e6:.6g} us)",
        f"op_fail_ratio       {failed / ops if ops else 0.0:.6f} ratio  ({failed} of {ops} ops raised)",
    ]
    if reconciles:
        extra.append(
            f"reconcile_ms        {statistics.median(reconciles) * 1e3:.4f} ms  "
            f"(median of {len(reconciles)} reconciles)"
        )
        modelled_reconcile = rounds[0].modelled_reconcile.seconds * 1e3 / len(rounds[0].reconcile_s)
        extra.append(
            f"modelled_reconcile_ms {modelled_reconcile:.6f} ms  "
            f"(exact, {len(rounds[0].reconcile_s)} reconciles per round)"
        )
    lines = [f"{name:<19} {value:.6g} {unit}  ({note})" for name, (value, unit, note) in metrics.items()]
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}, lines + extra


def per_layer(
    workload: Any, untraced: list[Any], traced: list[Any], tracer: Any
) -> tuple[dict[str, Any], list[str]]:
    from tracing import OP_LAYER, layers_in_order, per_op

    stats = tracer.stats
    ops = sum(r.ops for r in traced)
    reports = [report for r in traced for report in r.reconcile_reports]
    reconciles = len(reports)
    us = 1e6

    def self_us(layer: str) -> float:
        return per_op(stats.layer_self_s(layer) * us, ops)

    def calls(layer: str, method: str | None = None) -> float:
        return per_op(stats.calls_of(layer, method), ops)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    replica_s = stats.total_s.get("core.reconciliation/reconcile_replicas", 0.0)
    group_s = stats.total_s.get("core.reconciliation/reconcile_group", 0.0)
    flushes = stats.calls_of("replication", "flush_updates")
    counts = untraced[0].modelled_all.counts
    untraced_ops = untraced[0].ops
    untraced_rate = statistics.median(scaled_rate(r) for r in untraced)
    traced_rate = statistics.median(scaled_rate(r) for r in traced)
    reconcile_wall = [s for r in untraced for s in scaled(r.reconcile_s, r)]

    metrics: dict[str, tuple[float, str]] = {
        "objects.calls_per_op": (calls("objects"), "count"),
        "objects.self_us_per_op": (self_us("objects"), "us"),
        "core.ccmgr.calls_per_op": (calls("core.ccmgr"), "count"),
        "core.ccmgr.self_us_per_op": (self_us("core.ccmgr"), "us"),
        "core.ccmgr.validations_per_op": (per_op(counts.get("constraint_validate", 0), untraced_ops), "count"),
        "core.repository.lookups_per_op": (calls("core.repository"), "count"),
        "core.repository.self_us_per_op": (self_us("core.repository"), "us"),
        "core.negotiation.calls_per_op": (calls("core.negotiation"), "count"),
        "core.negotiation.self_us_per_op": (self_us("core.negotiation"), "us"),
        "core.negotiation.accept_ratio": (
            ratio(stats.values.get("core.negotiation/negotiate", 0), stats.calls_of("core.negotiation")),
            "ratio",
        ),
        "core.threats.records_per_op": (calls("core.threats", "record"), "count"),
        "core.threats.self_us_per_op": (self_us("core.threats"), "us"),
        "core.threats.stored_per_reconcile": (
            ratio(sum(n for r in traced for n in r.threats_before_reconcile), reconciles),
            "count",
        ),
        "core.reconciliation.self_ms_per_reconcile": (
            ratio(stats.layer_self_s("core.reconciliation") * 1e3, reconciles),
            "ms",
        ),
        "core.reconciliation.replica_phase_ms": (ratio(replica_s * 1e3, reconciles), "ms"),
        "core.reconciliation.constraint_phase_ms": (ratio((group_s - replica_s) * 1e3, reconciles), "ms"),
        "core.reconciliation.conflicts": (ratio(sum(r.replica_conflicts for r in reports), reconciles), "count"),
        "core.reconciliation.threats_reevaluated": (
            ratio(sum(r.threats_reevaluated for r in reports), reconciles),
            "count",
        ),
        "replication.self_us_per_op": (self_us("replication"), "us"),
        "replication.flushes_per_op": (calls("replication", "flush_updates"), "count"),
        "replication.entries_per_flush": (
            ratio(stats.values.get("replication/flush_updates", 0), flushes),
            "count",
        ),
        "tx.self_us_per_op": (self_us("tx"), "us"),
        "tx.rollback_ratio": (ratio(stats.calls_of("tx", "rollback"), stats.calls_of("tx", "run")), "ratio"),
        "persistence.calls_per_op": (calls("persistence"), "count"),
        "persistence.self_us_per_op": (self_us("persistence"), "us"),
        "persistence.history_entries": (calls("persistence", "record"), "count"),
        "net.msgs_per_op": (calls("net", "send"), "count"),
        "net.multicasts_per_op": (calls("net", "multicast"), "count"),
        "net.self_us_per_op": (self_us("net"), "us"),
        "net.topology_calls_per_op": (calls("net.topology"), "count"),
        "net.topology_self_us_per_op": (self_us("net.topology"), "us"),
        "membership.calls_per_op": (calls("membership"), "count"),
        "membership.self_us_per_op": (self_us("membership"), "us"),
        "transport.tx_guard_wait_us_per_op": (per_op(stats.guard_wait_s * us, ops), "us"),
        "transport.tx_guard_hold_us_per_op": (per_op(stats.guard_hold_s * us, ops), "us"),
    }
    for category in SIM_CATEGORIES:
        metrics[f"sim.{category}.count_per_op"] = (per_op(counts.get(category, 0), untraced_ops), "count")
    metrics["sim.modelled_reconcile_ms"] = (
        ratio(untraced[0].modelled_reconcile.seconds * 1e3, len(untraced[0].reconcile_s)),
        "ms",
    )
    metrics["reconcile_ms"] = (
        statistics.median(reconcile_wall) * 1e3 if reconcile_wall else 0.0,
        "ms",
    )
    metrics["trace.unattributed_us_per_op"] = (self_us(OP_LAYER), "us")
    metrics["trace.op_wall_us_per_op"] = (per_op(stats.op_wall_s * us, ops), "us")
    metrics["trace.overhead_ratio"] = (traced_rate / untraced_rate, "ratio")

    lines = [
        f"traced: {ops} business ops in {len(traced)} rounds, {reconciles} reconciles, "
        f"{stats.spans} spans; untraced {untraced_rate:.1f} ops/s, traced {traced_rate:.1f} ops/s",
        f"{'layer':<22}{'self us/op':>12}{'share':>8}{'calls/op':>10}",
    ]
    op_wall = stats.op_wall_s or 1.0
    shares = []
    for layer in layers_in_order():
        share = stats.layer_self_s(layer) / op_wall
        shares.append((share, layer))
        name = "(unattributed)" if layer == OP_LAYER else layer
        lines.append(f"{name:<22}{self_us(layer):>12.2f}{share:>8.1%}{calls(layer):>10.2f}")
    lines.append(f"{'(op wall, the base)':<22}{per_op(stats.op_wall_s * us, ops):>12.2f}{1:>8.1%}")
    if workload.name == "healthy-write":
        top = [layer for _, layer in sorted(shares, reverse=True) if layer != OP_LAYER][:2]
        expected = {"persistence"} <= set(top) and bool({"replication", "net", "net.topology"} & set(top))
        lines.append(
            f"sanity: top self-time layers are {top}; expected persistence and replication/net: "
            + ("holds" if expected else "DOES NOT HOLD")
        )
    extra = sorted(set(counts) - set(SIM_CATEGORIES))
    if extra:
        lines.append(f"note: CostLedger categories not in the metric list: {extra}")
    if tracer.missing:
        lines.append(f"note: entry points not found, not traced: {tracer.missing}")
    lines += [f"{name:<45} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, lines


#: CostLedger categories reported as ``sim.<category>.count_per_op``.
SIM_CATEGORIES = (
    "adapt_monitor",
    "ccm_notification",
    "constraint_validate",
    "db_create",
    "db_delete",
    "db_read",
    "db_write",
    "fault_delay",
    "interceptor_hop",
    "invocation_base",
    "multicast",
    "network_latency",
    "replica_detail_write",
    "replica_metadata_write",
    "repository_dispatch",
    "repository_lookup_cached",
    "repository_search",
    "state_history_write",
    "threat_dedup_check",
    "threat_negotiate",
    "threat_persist",
    "threat_persist_identical",
    "threat_sync_record",
    "tx_remote_association",
    "update_batch_entry",
)


class TracedTimer:
    """Opens an op span around each timed call and wraps ``tx_guard``."""

    def __init__(self, tracer: Any) -> None:
        from workloads import Timer

        self.tracer = tracer
        self.clock = clock
        self.plain = Timer(clock)

    def attach(self, cluster: Any) -> None:
        transport = cluster.transport
        transport.tx_guard = self.tracer.guard(transport.tx_guard)

    def call(self, kind: str, fn: Any, *args: Any, **kwargs: Any) -> tuple[Any, float]:
        op = self.tracer.begin_op(kind)
        started = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            took = clock() - started
            self.tracer.end_op(op)
        return result, took

    def untraced(self) -> Any:
        return self.plain


def run_one(args: argparse.Namespace) -> int:
    from tracing import Tracer
    from workloads import WORKLOADS, CheckFailed, Timer

    workload = WORKLOADS[args.workload](args.seed)
    timer = Timer(clock)
    report: list[str] = [f"workload {workload.name}, seed {args.seed}, trace {args.trace}"]
    attempted = failed = 0
    try:
        reference = workload.run_round(timer)  # warm-up, not reported
        gc.collect()
        if args.trace == 0:
            rounds = run_rounds(workload, timer, args.seconds)
            check_modelled(workload, reference, rounds, "untraced")
            metrics, lines = end_to_end(workload, rounds)
            measured = rounds
        else:
            untraced = run_rounds(workload, timer, args.seconds / 2)
            check_modelled(workload, reference, untraced, "untraced")
            tracer = Tracer(clock, keep_spans=KEEP_SPANS)
            tracer.install()
            try:
                traced = run_rounds(workload, TracedTimer(tracer), args.seconds / 2)
            finally:
                tracer.uninstall()
            # The wrappers must be transparent to the modelled clock.
            check_modelled(workload, reference, traced, "traced")
            metrics, lines = per_layer(workload, untraced, traced, tracer)
            SPANS_DIR.mkdir(exist_ok=True)
            spans_file = SPANS_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
            written = tracer.write_spans(spans_file)
            lines.append(f"spans: {written} of {tracer.stats.spans} written to {spans_file.relative_to(ROOT)}")
            measured = untraced + traced
        attempted = sum(r.ops for r in measured)
        failed = sum(r.failed for r in measured)
    except CheckFailed as error:
        print("\n".join(report), flush=True)
        print(f"OUTPUT CHECK FAILED: {error}", file=sys.stderr, flush=True)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": failed, "metrics": {}}))
        return 1
    if workload.transport == "sim":
        report.append(f"modelled-fingerprint {fingerprint(reference)}")
    print("\n".join(report + lines), flush=True)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload untraced then traced, each in its own process."""
    from workloads import WORKLOADS

    status = 0
    for name, cls in WORKLOADS.items():
        prints = {}
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]  # fmt: skip
            child = subprocess.run(command, capture_output=True, text=True, timeout=600)
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            lines = child.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if child.returncode != 0 or result is None or not result["correct"]:
                print(f"FAILED: {name} trace {trace} exited {child.returncode}", file=sys.stderr)
                status = 1
            prints[trace] = next((l.split()[1] for l in lines if l.startswith("modelled-fingerprint")), None)
        if cls.transport == "sim" and (prints[0] is None or prints[0] != prints[1]):
            print(f"FAILED: {name} modelled figures differ between runs: {prints}", file=sys.stderr)
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import_program()
        if args.workload == "all":
            return run_all(args)
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
        return run_one(args)
    except SetupError as error:
        print(f"cannot run the benchmark: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
