"""Span tracing installed from outside the program.

``Tracer.install()`` wraps the public entry points of each layer (the
``ENTRY_POINTS`` table) on their classes and restores the originals on
``uninstall()``; nothing under ``src/`` knows it is traced.  A span
records name, start, end, parent and op id.  Spans of one op share the op
id: on the op's own thread through the thread's span stack, and on other
threads (the asyncio backend's node executors) by belonging to the op
that holds the cluster's ``tx_guard``, with the latest-started open span
of another thread as parent — message delivery is a synchronous RPC, so
that span is the send waiting for the handler.

A span's self time is its duration minus the union of its children's
intervals.  Per op the tracer sums self time per layer, counts calls per
entry point, and collects the values some entry points return.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import threading
from typing import Any, Callable, Iterable

# (layer, module, class, methods).  A subclass that overrides a method is
# listed after its base; a ``super()`` call back into the base is folded
# into the caller's span.
ENTRY_POINTS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("objects", "repro.objects.invocation", "InvocationService", ("invoke",)),
    ("objects", "repro.objects.invocation", "InterceptorChain", ("execute",)),
    (
        "core.ccmgr",
        "repro.core.ccmgr",
        "ConstraintConsistencyManager",
        ("before_invocation", "after_invocation", "prepare"),
    ),
    (
        "core.repository",
        "repro.core.repository",
        "ConstraintRepository",
        ("affected_constraints", "method_dispatch"),
    ),
    ("core.repository", "repro.core.repository", "CachingConstraintRepository", ("affected_constraints",)),
    (
        "core.repository",
        "repro.core.repository",
        "CompiledConstraintRepository",
        ("affected_constraints", "method_dispatch"),
    ),
    ("core.negotiation", "repro.core.negotiation", "Negotiator", ("negotiate",)),
    ("core.threats", "repro.core.threats", "ThreatStore", ("record", "apply_remote", "remove")),
    ("core.reconciliation", "repro.core.reconciliation", "ReconciliationManager", ("reconcile_group",)),
    ("core.reconciliation", "repro.replication.manager", "ReplicationManager", ("reconcile_replicas",)),
    (
        "replication",
        "repro.replication.manager",
        "ReplicationManager",
        ("propagate_update", "flush_updates", "route_write", "route_read"),
    ),
    ("tx", "repro.tx.transactions", "TransactionManager", ("run", "commit", "rollback")),
    # ``Table.scan`` is a generator no code path calls; a span around the
    # call would time only the generator's creation, so it is not wrapped.
    ("persistence", "repro.persistence.store", "Table", ("put", "get", "get_or_none", "insert")),
    ("persistence", "repro.persistence.store", "StateHistory", ("record",)),
    ("net", "repro.net.network", "SimNetwork", ("send",)),
    ("net", "repro.transport.asyncio_backend", "AsyncioNetwork", ("send",)),
    ("net", "repro.net.multicast", "GroupChannel", ("multicast",)),
    ("net", "repro.transport.asyncio_backend", "AsyncioGroupChannel", ("multicast",)),
    ("net.topology", "repro.net.topology", "Topology", ("partition_of", "partitions", "reachable")),
    ("membership", "repro.membership.gms", "GroupMembershipService", ("refresh", "view_of")),
)

#: The pseudo-layer of each op's root span and of the ``tx_guard`` wait.
OP_LAYER = "op"
GUARD_SPAN = "transport/tx_guard_wait"


class Span:
    __slots__ = ("name", "layer", "obj", "start", "end", "parent", "thread", "value")

    def __init__(self, name: str, layer: str, obj: Any, parent: "Span | None", thread: int) -> None:
        self.name = name
        self.layer = layer
        self.obj = obj
        self.parent = parent
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.value: Any = None


class Op:
    """One traced op: its root span and every span it caused."""

    __slots__ = ("op_id", "root", "spans", "guard_hold")

    def __init__(self, op_id: int) -> None:
        self.op_id = op_id
        self.root: Span | None = None
        self.spans: list[Span] = []
        self.guard_hold = 0.0


def _returned_value(layer: str, method: str) -> Callable[[Any], Any] | None:
    """What a span keeps of its entry point's return value."""
    if (layer, method) == ("core.negotiation", "negotiate"):
        return lambda result: 1 if getattr(result, "accepted", False) else 0
    if (layer, method) == ("replication", "flush_updates"):
        return lambda result: int(result or 0)
    return None


class LayerStats:
    """Totals over every finished op of the traced phase."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.values: dict[str, int] = {}
        self.op_wall_s = 0.0
        self.guard_wait_s = 0.0
        self.guard_hold_s = 0.0
        self.spans = 0

    def layer_self_s(self, layer: str) -> float:
        return self.self_s.get(layer, 0.0)

    def calls_of(self, layer: str, method: str | None = None) -> int:
        if method is not None:
            return self.calls.get(f"{layer}/{method}", 0)
        prefix = f"{layer}/"
        return sum(count for name, count in self.calls.items() if name.startswith(prefix))


def _self_times(spans: list[Span]) -> list[float]:
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    result = []
    for span in spans:
        covered = 0.0
        kids = children.get(id(span))
        if kids:
            cursor = span.start
            for kid in sorted(kids, key=lambda s: s.start):
                start = max(kid.start, cursor)
                end = min(kid.end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
        result.append(span.end - span.start - covered)
    return result


class Tracer:
    """Wraps the layer entry points while installed; aggregates per op."""

    def __init__(self, clock: Callable[[], float], keep_spans: int = 0) -> None:
        self.clock = clock
        self.stats = LayerStats()
        self.keep_spans = keep_spans
        self.kept: list[dict[str, Any]] = []
        self.missing: list[str] = []
        self._stacks: dict[int, list[Span]] = {}
        self._thread_op: dict[int, Op] = {}
        self._guard_op: Op | None = None
        self._next_op = 0
        self._patched: list[tuple[type, str, Any]] = []
        self._lock = threading.Lock()

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        seen: set[tuple[type, str]] = set()
        for layer, module_name, class_name, methods in ENTRY_POINTS:
            try:
                cls = getattr(importlib.import_module(module_name), class_name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{class_name}")
                continue
            for method in methods:
                owner = next((k for k in cls.__mro__ if method in k.__dict__), None)
                if owner is None:
                    self.missing.append(f"{class_name}.{method}")
                    continue
                if (owner, method) in seen:
                    continue
                seen.add((owner, method))
                original = owner.__dict__[method]
                setattr(owner, method, self._wrap(original, layer, method))
                self._patched.append((owner, method, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, method, original = self._patched.pop()
            setattr(owner, method, original)

    def guard(self, make_guard: Callable[[], Any]) -> Callable[[], Any]:
        """Wrap ``transport.tx_guard``: time enter→acquire and acquire→release,
        and hand spans on threads without an op of their own to the holder."""
        tracer = self

        class _Guard:
            __slots__ = ("inner", "op", "acquired", "previous")

            def __init__(self) -> None:
                self.inner = make_guard()

            def __enter__(self) -> Any:
                self.op = tracer._thread_op.get(threading.get_ident())
                span = tracer._begin(GUARD_SPAN, "transport", None) if self.op else None
                result = self.inner.__enter__()
                if span is not None:
                    tracer._end(span)
                self.acquired = tracer.clock()
                self.previous = tracer._guard_op
                if self.op is not None:
                    tracer._guard_op = self.op
                return result

            def __exit__(self, *exc_info: Any) -> Any:
                if self.op is not None:
                    self.op.guard_hold += tracer.clock() - self.acquired
                tracer._guard_op = self.previous
                return self.inner.__exit__(*exc_info)

        return _Guard

    # -- spans ----------------------------------------------------------------
    def _op_for(self, ident: int) -> Op | None:
        op = self._thread_op.get(ident)
        return op if op is not None else self._guard_op

    def _begin(self, name: str, layer: str, obj: Any) -> Span | None:
        ident = threading.get_ident()
        op = self._op_for(ident)
        if op is None:
            return None
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent: Span | None = stack[-1]
        else:
            parent = self._foreign_parent(op, ident)
        span = Span(name, layer, obj, parent, ident)
        op.spans.append(span)
        stack.append(span)
        span.start = self.clock()
        return span

    def _end(self, span: Span) -> None:
        span.end = self.clock()
        self._stacks[span.thread].pop()

    def _foreign_parent(self, op: Op, ident: int) -> Span | None:
        latest: Span | None = None
        for thread, stack in list(self._stacks.items()):
            if thread == ident or not stack:
                continue
            top = stack[-1]
            if self._op_for(thread) is op and (latest is None or top.start > latest.start):
                latest = top
        return latest

    def _wrap(self, original: Any, layer: str, method: str) -> Any:
        name = f"{layer}/{method}"
        keep = _returned_value(layer, method)
        tracer = self

        def enter(obj: Any) -> Span | None:
            stack = tracer._stacks.get(threading.get_ident())
            if stack and stack[-1].name == name and stack[-1].obj is obj:
                return None  # super() call of an already traced override
            return tracer._begin(name, layer, obj)

        @functools.wraps(original)
        def wrapper(obj: Any, *args: Any, **kwargs: Any) -> Any:
            span = enter(obj)
            if span is None:
                return original(obj, *args, **kwargs)
            try:
                result = original(obj, *args, **kwargs)
            finally:
                tracer._end(span)
            if keep is not None:
                span.value = keep(result)
            return result

        return wrapper

    # -- ops --------------------------------------------------------------------
    def begin_op(self, kind: str) -> Op:
        ident = threading.get_ident()
        with self._lock:
            self._next_op += 1
            op = Op(self._next_op)
        self._thread_op[ident] = op
        op.root = self._begin(f"{OP_LAYER}/{kind}", OP_LAYER, None)
        return op

    def end_op(self, op: Op) -> None:
        assert op.root is not None
        self._end(op.root)
        del self._thread_op[threading.get_ident()]
        selfs = _self_times(op.spans)
        with self._lock:
            stats = self.stats
            stats.op_wall_s += op.root.end - op.root.start
            stats.guard_hold_s += op.guard_hold
            stats.spans += len(op.spans)
            for span, self_s in zip(op.spans, selfs):
                stats.calls[span.name] = stats.calls.get(span.name, 0) + 1
                stats.self_s[span.layer] = stats.self_s.get(span.layer, 0.0) + self_s
                stats.total_s[span.name] = stats.total_s.get(span.name, 0.0) + (span.end - span.start)
                if span.name == GUARD_SPAN:
                    stats.guard_wait_s += span.end - span.start
                if isinstance(span.value, int):
                    stats.values[span.name] = stats.values.get(span.name, 0) + span.value
            if len(self.kept) < self.keep_spans:
                index = {id(span): position for position, span in enumerate(op.spans)}
                for span in op.spans:
                    self.kept.append(
                        {
                            "op": op.op_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": None if span.parent is None else index.get(id(span.parent)),
                            "id": index[id(span)],
                            "thread": span.thread,
                        }
                    )

    def write_spans(self, path: Any) -> int:
        """Write the kept spans as gzipped JSON lines; returns the count."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for record in self.kept:
                out.write(json.dumps(record, separators=(",", ":")) + "\n")
        return len(self.kept)


def per_op(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def layers_in_order() -> Iterable[str]:
    seen: list[str] = []
    for layer, *_ in ENTRY_POINTS:
        if layer not in seen:
            seen.append(layer)
    return seen + ["transport", OP_LAYER]
