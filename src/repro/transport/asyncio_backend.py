"""In-process asyncio backend: real mailboxes, executors, and wall time.

Each node runs as an **asyncio task** servicing a mailbox on a shared
event loop (hosted in a daemon thread).  A ``send`` from a client thread
or from another node's handler enqueues the message onto the destination
mailbox and blocks on a future; the node task dispatches the handler into
the node's thread-pool executor, so nested synchronous sends — the
primary multicasting an update from inside a server-chain handler — run
without ever blocking the loop.

The failure model is the shared :class:`~repro.net.topology.Topology`:
``partition`` / ``crash_node`` / ``fail_link`` work exactly as on the
simulator, but they are enforced *at the delivery layer* — a message
whose source→destination route crosses a failed link is refused before it
reaches the mailbox, surfacing the same :class:`UnreachableError` a real
socket reset would.  Loss probability and installed
:class:`~repro.faults.injector.FaultInjector` models are consulted on the
same path, with injected delays becoming real ``time.sleep`` on the
sending thread — so fault models and failure calls behave as on the
simulator.  (Chaos runs and corpus replays still build simulated
clusters only.)

What this backend intentionally does **not** give: determinism.  Message
arrival interleaves with real timers (failure-detector heartbeats,
adaptation ticks) and OS scheduling; traces are real but not replayable.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Sequence

from ..net import Message, NodeCrashedError, NodeId, UnreachableError
from ..net.network import payload_size
from ..net.topology import Topology
from ..sim import CostLedger, CostModel
from .base import Transport
from .wallclock import RealScheduler, WallClock

#: Handler namespaces: point-to-point sends vs group-channel deliveries.
_P2P = "p2p"
_MEMBER = "member"

#: Per-node executor width: bounds nested re-entrant delivery depth (a
#: handler on A sending to B whose handler calls back into A).
_NODE_WORKERS = 4

_CLOSE = object()


class AsyncioNetwork(Topology):
    """Mailbox-per-node message substrate on a background event loop."""

    def __init__(
        self,
        nodes: Sequence[NodeId],
        scheduler: RealScheduler,
        costs: CostModel | None = None,
        loss_probability: float = 0.0,
        seed: int = 0,
        obs: Any = None,
        request_timeout: float = 10.0,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError("loss probability must be in [0, 1)")
        super().__init__(nodes, obs=obs)
        self.scheduler = scheduler
        self.costs = costs if costs is not None else CostModel()
        self.ledger = CostLedger()
        self.loss_probability = loss_probability
        self.request_timeout = request_timeout
        self._rng = random.Random(seed)  # guarded-by: _rng_lock
        self._rng_lock = threading.Lock()
        # Copy-on-write: mutators rebuild the whole two-level dict under
        # the lock, so the loop thread can read a coherent snapshot
        # without ever blocking on a lock (see _node_main).
        self._handlers: dict[str, dict[NodeId, Callable[[Message], Any]]] = {  # guarded-by: _handlers_lock
            _P2P: {},
            _MEMBER: {},
        }
        self._handlers_lock = threading.Lock()
        self._delivered: list[Message] = []  # guarded-by: _delivered_lock
        self._delivered_lock = threading.Lock()
        self.injector: Any = None
        self._m_sent = self.obs.registry.counter(
            "net_messages_sent_total", "point-to-point messages delivered, by kind"
        )
        self._m_dropped = self.obs.registry.counter(
            "net_messages_dropped_total", "messages not delivered, by reason"
        )
        self._m_link_bytes = self.obs.registry.counter(
            "net_link_bytes_total", "estimated payload bytes per directed link"
        )
        # --- asyncio machinery -------------------------------------------
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="repro-transport-loop", daemon=True
        )
        self._loop_thread.start()
        self._executors: dict[NodeId, ThreadPoolExecutor] = {
            node: ThreadPoolExecutor(
                max_workers=_NODE_WORKERS, thread_name_prefix=f"repro-node-{node}"
            )
            for node in self.nodes
        }
        self._mailboxes: dict[NodeId, asyncio.Queue] = {}
        self._node_tasks: list[asyncio.Task] = []
        asyncio.run_coroutine_threadsafe(self._start_nodes(), self._loop).result(
            timeout=self.request_timeout
        )
        self._closed = False  # guarded-by: _close_lock
        self._close_lock = threading.Lock()

    async def _start_nodes(self) -> None:
        for node in self.nodes:
            self._mailboxes[node] = asyncio.Queue()
            self._node_tasks.append(
                self._loop.create_task(self._node_main(node), name=f"node-{node}")
            )

    # ------------------------------------------------------------------
    # handlers / fault injection (SimNetwork surface)
    # ------------------------------------------------------------------
    def register_handler(self, node: NodeId, handler: Callable[[Message], Any]) -> None:
        self._require_node(node)
        self._mutate_handlers(_P2P, node, handler)

    def register_member_handler(
        self, node: NodeId, handler: Callable[[Message], Any]
    ) -> None:
        """Group-channel delivery handler (the channel's ``join``)."""
        self._require_node(node)
        self._mutate_handlers(_MEMBER, node, handler)

    def remove_member_handler(self, node: NodeId) -> None:
        self._mutate_handlers(_MEMBER, node, None)

    def _mutate_handlers(
        self, ns: str, node: NodeId, handler: Callable[[Message], Any] | None
    ) -> None:
        """Rebuild the handler table copy-on-write (``None`` removes).

        Members join and leave from handler threads while the loop thread
        dispatches; replacing the outer dict wholesale means every reader
        sees either the old or the new table, never a dict mid-mutation.
        """
        with self._handlers_lock:
            updated = dict(self._handlers[ns])
            if handler is None:
                updated.pop(node, None)
            else:
                updated[node] = handler
            self._handlers = {**self._handlers, ns: updated}

    def member_nodes(self) -> tuple[NodeId, ...]:
        # replint: ignore[CONC001] - lock-free read of the copy-on-write
        # handler table: the reference swap in _mutate_handlers is atomic
        # under the GIL and the snapshot is never mutated in place.
        return tuple(sorted(self._handlers[_MEMBER]))

    def install_fault_injector(self, injector: Any) -> Any:
        injector.bind_obs(self.obs)
        self.injector = injector
        return injector

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def send(
        self, source: NodeId, destination: NodeId, kind: str, payload: Any = None
    ) -> Any:
        """Deliver a message through the destination's mailbox and block
        for the handler result — same synchronous RPC contract as the
        simulator, same error surface, but carried by the event loop."""
        return self._transmit(source, destination, kind, payload, _P2P)

    def deliver_member(
        self, source: NodeId, destination: NodeId, kind: str, payload: Any = None
    ) -> Any:
        """One group-channel delivery (used by :class:`AsyncioGroupChannel`)."""
        return self._transmit(source, destination, kind, payload, _MEMBER)

    def _transmit(
        self, source: NodeId, destination: NodeId, kind: str, payload: Any, ns: str
    ) -> Any:
        if source in self._crashed:
            self._drop(source, destination, kind, "source-crashed")
            raise NodeCrashedError(source)
        if not self.reachable(source, destination):
            self._drop(source, destination, kind, "unreachable")
            raise UnreachableError(source, destination)
        if self.loss_probability:
            with self._rng_lock:
                lost = self._rng.random() < self.loss_probability
            if lost:
                self._drop(source, destination, kind, "loss")
                raise UnreachableError(source, destination)
        duplicates = 0
        if self.injector is not None:
            decision = self.injector.on_send(source, destination, kind, payload)
            if decision.drop:
                self._drop(source, destination, kind, decision.reason or "fault")
                raise UnreachableError(source, destination)
            if decision.extra_delay > 0.0:
                # A delayed link really delays the sender: the middleware's
                # sends are synchronous round trips.
                self.ledger.charge("fault_delay", decision.extra_delay)
                time.sleep(decision.extra_delay)
            duplicates = decision.duplicates
        message = Message(source, destination, kind, payload)
        if source != destination:
            self.ledger.charge("network_latency", self.costs.network_latency)
        if self.obs.enabled:
            size = payload_size(payload)
            self._m_sent.inc(kind=kind)
            self._m_link_bytes.inc(size, link=f"{source}->{destination}")
            self.obs.emit(
                "message_send",
                node=str(source),
                destination=destination,
                kind=kind,
                bytes=size,
            )
        result = self._post(message, ns)
        for _ in range(duplicates):
            self._post(message, ns)
        return result

    def _post(self, message: Message, ns: str) -> Any:
        """Enqueue onto the destination mailbox; block for the result.

        The reply future is a thread-safe :class:`concurrent.futures.Future`
        resolved from the destination's executor, so the sending thread —
        a client thread or another node's handler — simply blocks on it.
        """
        # replint: ignore[CONC001] - lock-free flag read: a bool load is
        # atomic under the GIL, and racing an in-flight close() can only
        # turn into the timeout path below, which is already handled.
        if self._closed:
            raise RuntimeError("network is closed")
        with self._delivered_lock:
            self._delivered.append(message)
        future: "Future[Any]" = Future()
        self._loop.call_soon_threadsafe(
            self._mailboxes[message.destination].put_nowait, (message, ns, future)
        )
        try:
            return future.result(timeout=self.request_timeout)
        except concurrent.futures.TimeoutError:
            # Indistinguishable from a lost message at the sender (§1.1).
            self._drop(message.source, message.destination, message.kind, "timeout")
            raise UnreachableError(message.source, message.destination) from None

    async def _node_main(self, node: NodeId) -> None:
        """The per-node asyncio task: drain the mailbox, dispatch handlers.

        Dispatch order is arrival order; execution happens in the node's
        executor so a slow or nested handler never stalls the loop (or the
        other nodes).
        """
        queue = self._mailboxes[node]
        while True:
            item = await queue.get()
            if item is _CLOSE:
                return
            message, ns, future = item
            if node in self._crashed:
                # Crashed between enqueue and dispatch: the frame dies in
                # the socket buffer, the sender sees an unreachable peer.
                if not future.done():
                    future.set_exception(
                        UnreachableError(message.source, message.destination)
                    )
                continue
            # replint: ignore[CONC001] - lock-free read on the event-loop
            # thread: taking _handlers_lock here would trade a race for a
            # loop stall; the copy-on-write table makes the read safe.
            handler = self._handlers[ns].get(node)
            if handler is None:
                if not future.done():
                    future.set_result(None)
                continue
            self._loop.create_task(
                self._run_handler(node, handler, message, future)
            )

    async def _run_handler(
        self,
        node: NodeId,
        handler: Callable[[Message], Any],
        message: Message,
        future: "Future[Any]",
    ) -> None:
        try:
            result = await self._loop.run_in_executor(
                self._executors[node], handler, message
            )
        except BaseException as exc:  # noqa: BLE001 - propagate to the sender
            if not future.done():
                future.set_exception(exc)
        else:
            if not future.done():
                future.set_result(result)

    # ------------------------------------------------------------------
    # introspection (SimNetwork surface)
    # ------------------------------------------------------------------
    @property
    def delivered_messages(self) -> list[Message]:
        with self._delivered_lock:
            return list(self._delivered)

    @property
    def delivered_count(self) -> int:
        with self._delivered_lock:
            return len(self._delivered)

    def delivered_since(self, watermark: int) -> list[Message]:
        with self._delivered_lock:
            return self._delivered[watermark:]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._close_lock:
            # Check-then-act under the lock: two racing close() calls
            # must not both run the teardown sequence below.
            if self._closed:
                return
            self._closed = True

        async def _shutdown() -> None:
            for node in self.nodes:
                await self._mailboxes[node].put(_CLOSE)

        asyncio.run_coroutine_threadsafe(_shutdown(), self._loop).result(timeout=5.0)
        for task in self._node_tasks:
            try:
                asyncio.run_coroutine_threadsafe(
                    asyncio.wait_for(asyncio.shield(task), timeout=1.0), self._loop
                ).result(timeout=2.0)
            except Exception:
                pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._loop_thread.join(timeout=2.0)
        for executor in self._executors.values():
            executor.shutdown(wait=False)

    def _drop(self, source: NodeId, destination: NodeId, kind: str, reason: str) -> None:
        if self.obs.enabled:
            self._m_dropped.inc(reason=reason)
            self.obs.emit(
                "message_drop",
                node=str(source),
                destination=destination,
                kind=kind,
                reason=reason,
            )


class AsyncioGroupChannel:
    """View-synchronous multicast over the asyncio backend.

    Same contract as :class:`~repro.net.multicast.GroupChannel`: a
    multicast reaches every reachable member and returns the acknowledging
    members' replies.  Deliveries ride the same mailbox path as
    point-to-point sends, so partitions, crashes, and injected faults
    shape the recipient set identically on both backends.
    """

    def __init__(self, network: AsyncioNetwork, group: str = "dedisys") -> None:
        self.network = network
        self.group = group
        self.obs = network.obs
        self._m_multicasts = self.obs.registry.counter(
            "net_multicasts_total", "group multicast rounds, by message kind"
        )
        self._m_recipients = self.obs.registry.counter(
            "net_multicast_deliveries_total", "per-recipient multicast deliveries"
        )

    def join(self, node: NodeId, handler: Callable[[Message], Any]) -> None:
        self.network.register_member_handler(node, handler)

    def leave(self, node: NodeId) -> None:
        self.network.remove_member_handler(node)

    @property
    def members(self) -> tuple[NodeId, ...]:
        return self.network.member_nodes()

    def multicast(
        self,
        source: NodeId,
        kind: str,
        payload: Any = None,
        await_acks: bool = True,
    ) -> dict[NodeId, Any]:
        if self.network.is_crashed(source):
            raise NodeCrashedError(source)
        recipients = [
            node
            for node in self.members
            if node != source and self.network.reachable(source, node)
        ]
        if self.obs.enabled:
            self._m_multicasts.inc(kind=kind)
            self._m_recipients.inc(len(recipients), kind=kind)
            self.obs.emit(
                "multicast",
                node=str(source),
                kind=kind,
                recipients=sorted(recipients),
                bytes=payload_size(payload),
                await_acks=await_acks,
            )
        replies: dict[NodeId, Any] = {}
        for node in recipients:
            # A member may crash or partition away mid-round; like the
            # Spread analogue, earlier recipients keep their delivery and
            # the failed one simply produces no reply.
            try:
                replies[node] = self.network.deliver_member(source, node, kind, payload)
            except (UnreachableError, NodeCrashedError):
                continue
        return replies


class AsyncioTransport(Transport):
    """In-process wall-clock substrate: asyncio tasks + real timers."""

    name = "asyncio"
    deterministic = False

    def __init__(
        self,
        node_ids: Sequence[NodeId],
        costs: CostModel | None = None,
        seed: int = 0,
        obs: Any = None,
        request_timeout: float = 10.0,
    ) -> None:
        self.clock = WallClock()
        self.scheduler = RealScheduler(self.clock)
        self.network = AsyncioNetwork(
            node_ids,
            scheduler=self.scheduler,
            costs=costs,
            seed=seed,
            obs=obs,
            request_timeout=request_timeout,
        )
        # The middleware stack is not thread-safe; top-level business
        # transactions from concurrent client threads serialize here while
        # delivery, timers, and detection stay genuinely concurrent.
        self._tx_lock = threading.RLock()

    def make_channel(self, group: str = "dedisys") -> AsyncioGroupChannel:
        return AsyncioGroupChannel(self.network, group)

    def tx_guard(self) -> Any:
        return self._tx_lock

    def settle(self, seconds: float) -> None:
        time.sleep(seconds)

    def close(self) -> None:
        self.network.close()
        self.scheduler.close()
