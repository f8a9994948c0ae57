"""The BlueGene 3D-torus interconnect and its MPI stream carrier.

This is the substrate behind Figures 6 and 8.  The model captures the three
mechanisms the paper identifies:

1. **Packet quantisation** — "1K is the smallest message size that can be
   exchanged in the BlueGene 3D torus"; buffers are padded to whole packets,
   so sub-1 KB send buffers waste wire time.
2. **Routing through intermediate co-processors** — "when messages are sent
   between non-adjacent nodes in BlueGene, they must be routed through the
   communication co-processors of the nodes in between.  Communication will
   be slower if these co-processors are busy."  Every node's co-processor is
   a capacity-1 :class:`~repro.sim.resources.Resource`; forwarded traffic
   and the node's own sends contend on it.
3. **Source switching at the receiver** — the "single-threaded communication
   co-processor of c must handle data streams from both a and b ... it
   switches between receiving messages from a and b.  Less frequent
   switching improves communication."  A switch penalty is charged whenever
   consecutive buffers received by a node come from different senders.

Routing is dimension-ordered (X, then Y, then Z) with wrap-around links,
which is how BlueGene/L's torus actually routes and is what makes the
paper's "sequential" node selection (nodes 0,1,2 in a line) route b->c
traffic through a's co-processor.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.hardware.bluegene import BlueGene
from repro.net.jitter import Jitter
from repro.net.message import WireBuffer
from repro.net.params import TorusParams
from repro.sim import Resource, Simulator, Store, Timeout, TokenPool
from repro.util.errors import NetworkError


def _axis_steps(src: int, dst: int, size: int) -> List[int]:
    """Signed unit steps along one torus axis, taking the shorter way around.

    Ties (exactly half way around an even-sized axis) go in the negative
    direction, matching the paper's Figure 7A set-up where traffic from
    node 2 to node 0 is routed through node 1 (2 -> 1 -> 0, not 2 -> 3 -> 0
    around the wrap link).
    """
    if size == 1 or src == dst:
        return []
    forward = (dst - src) % size
    backward = (src - dst) % size
    if forward < backward:
        return [+1] * forward
    return [-1] * backward


#: Default cap on memoized routes.  16384 entries hold every pair a large
#: multi-query session touches while bounding a 16x16x16 torus (whose
#: all-pairs table would be 4096^2 = 16.7M entries) to a few megabytes.
DEFAULT_ROUTE_MEMO_ENTRIES = 16_384


class RouteTable:
    """Bounded memo table of XYZ dimension-ordered routes over one torus.

    Routes are pure functions of the torus shape, so one table can be shared
    by every :class:`TorusNetwork` over the same :class:`BlueGene` topology —
    including across repeats of a measurement sweep, where the environment
    template cache hands the same table to each fresh network instance.

    The memo is bounded at ``max_entries`` pairs: once full, the oldest
    *inserted* entry is evicted (FIFO).  Insertion order is deterministic
    given a deterministic access sequence, and the memo is a pure cache —
    an evicted pair is simply recomputed on the next request — so eviction
    can never change simulated results, only recomputation counts.
    FIFO (rather than LRU) keeps the hit path to a single dict lookup with
    no reordering bookkeeping; route working sets are dominated by a stable
    set of active streams, where the two policies behave alike.

    The cached path lists are returned by reference and must be treated as
    read-only by callers.
    """

    def __init__(self, bluegene: BlueGene,
                 max_entries: int = DEFAULT_ROUTE_MEMO_ENTRIES):
        if max_entries < 1:
            raise NetworkError(
                f"route memo must hold at least one entry, got {max_entries}"
            )
        self.bluegene = bluegene
        self.max_entries = max_entries
        self._routes: Dict[Tuple[int, int], List[int]] = {}

    def route(self, src: int, dst: int) -> List[int]:
        """Compute-node path from ``src`` to ``dst`` (inclusive), memoized."""
        key = (src, dst)
        path = self._routes.get(key)
        if path is None:
            routes = self._routes
            if len(routes) >= self.max_entries:
                # FIFO eviction: dicts iterate in insertion order, so the
                # first key is the oldest entry.
                del routes[next(iter(routes))]
            path = routes[key] = self.compute(src, dst)
        return path

    def compute(self, src: int, dst: int) -> List[int]:
        """Freshly compute the XYZ dimension-ordered path (no memoization)."""
        bluegene = self.bluegene
        shape = bluegene.config.torus_shape
        if src == dst:
            return [src]
        path = [src]
        coord = list(bluegene.coord_of(src))
        target = bluegene.coord_of(dst)
        for axis in range(3):
            for step in _axis_steps(coord[axis], target[axis], shape[axis]):
                coord[axis] = (coord[axis] + step) % shape[axis]
                path.append(bluegene.index_of(tuple(coord)))
        return path

    def __len__(self) -> int:
        return len(self._routes)

    def approx_bytes(self) -> int:
        """Approximate resident size of the memo in bytes.

        Shallow-sums the dict, its key tuples, and the path lists (node
        indices are small shared ints).  The scale benchmark asserts this
        stays bounded on a 16x16x16 torus.
        """
        from sys import getsizeof

        total = getsizeof(self._routes)
        for key, path in self._routes.items():
            total += getsizeof(key) + getsizeof(path)
        return total


class TorusNetwork:
    """Contention-aware 3D torus carrying MPI stream buffers."""

    def __init__(
        self,
        sim: Simulator,
        bluegene: BlueGene,
        params: TorusParams = TorusParams(),
        jitter: Optional[Jitter] = None,
        routes: Optional[RouteTable] = None,
    ):
        self.sim = sim
        self.bluegene = bluegene
        self.params = params
        self.jitter = jitter or Jitter()
        self.routes = routes if routes is not None else RouteTable(bluegene)
        self._links: Dict[Tuple[int, int], Resource] = {}
        self._link_slowdown: Dict[Tuple[int, int], float] = {}
        self._coprocessors: Dict[int, Resource] = {}
        self._forward_stages: Dict[int, str] = {}
        self._last_source: Dict[int, Optional[str]] = {}
        self._stream_windows: Dict[str, TokenPool] = {}
        self._in_flight: Dict[str, int] = {}  # stream id -> buffers being forwarded
        self._active_streams: Dict[int, set] = {}
        self._node_switches: Dict[int, Any] = {}  # node -> counter, bound by its first switch
        self._counters: Any = None  # payload, wire, buffers: bound by the first send

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def route(self, src: int, dst: int) -> List[int]:
        """Compute-node path from ``src`` to ``dst`` (inclusive), XYZ-ordered.

        Delegates to the (possibly shared) :class:`RouteTable`; route lookup
        is per-buffer on the transfer hot path, so this is memoized.
        """
        return self.routes.route(src, dst)

    def hop_count(self, src: int, dst: int) -> int:
        """Number of torus links on the route from ``src`` to ``dst``."""
        return len(self.route(src, dst)) - 1

    def coprocessor(self, node_index: int) -> Resource:
        """The (lazily created) communication co-processor of a compute node."""
        if node_index not in self._coprocessors:
            self.bluegene.node(node_index)  # validate index
            self._coprocessors[node_index] = Resource(
                self.sim, capacity=1, name=f"coproc[{node_index}]"
            )
            self._forward_stages[node_index] = f"torus.forward[{node_index}]"
        return self._coprocessors[node_index]

    def link(self, a: int, b: int) -> Resource:
        """The directional link resource from node ``a`` to node ``b``."""
        key = (a, b)
        if key not in self._links:
            self._links[key] = Resource(self.sim, capacity=1, name=f"link[{a}->{b}]")
        return self._links[key]

    def degrade_link(self, a: int, b: int, factor: float) -> None:
        """Slow every transfer over the ``a``/``b`` link by ``factor``.

        The fault-injection model of a flaky torus cable: the per-buffer
        occupancy of both directions of the link is multiplied by
        ``factor`` (>= 1) from now on.  The healthy path stays free: the
        hot loops only consult the slowdown table when it is non-empty.
        """
        if factor < 1.0:
            raise NetworkError(f"link slowdown factor must be >= 1, got {factor}")
        self.bluegene.node(a)  # validate indexes
        self.bluegene.node(b)
        self._link_slowdown[(a, b)] = float(factor)
        self._link_slowdown[(b, a)] = float(factor)

    def restore_link(self, a: int, b: int) -> None:
        """Heal a previously degraded ``a``/``b`` link (both directions).

        Restoring a link that was never degraded is a no-op; once the
        slowdown table is empty again the hot loops skip it entirely, so a
        healed torus is exactly as cheap as one that never flapped.
        """
        self.bluegene.node(a)  # validate indexes
        self.bluegene.node(b)
        self._link_slowdown.pop((a, b), None)
        self._link_slowdown.pop((b, a), None)

    # ------------------------------------------------------------------
    # Stream registry (drives the receive switching cost)
    # ------------------------------------------------------------------
    def register_stream(self, node: int, stream_id: str) -> None:
        """Record that a stream now terminates at compute node ``node``."""
        self._active_streams.setdefault(node, set()).add(stream_id)

    def unregister_stream(self, node: int, stream_id: str) -> None:
        """Record the end of a stream terminating at ``node``."""
        streams = self._active_streams.get(node)
        if streams is not None:
            streams.discard(stream_id)
        self._release_stream(stream_id)

    def _release_stream(self, stream_id: str) -> None:
        """Forget a closed stream's window once none of its buffers is in
        flight (MPI close does not drain: the last delivery may be what
        frees it)."""
        if stream_id not in self._in_flight:
            self._stream_windows.pop(stream_id, None)

    def in_flight_census(self) -> List[Tuple[str, int]]:
        """``(stream_id, buffers in flight)`` of every stream with any,
        sorted; on a drained simulator each is a lost buffer (``SAN204``)."""
        return sorted(self._in_flight.items())

    def active_stream_census(self) -> List[Tuple[int, str]]:
        """Every still-registered ``(node, stream_id)``, sorted.

        A quiescent torus has none: carriers unregister on close/abort, so
        anything left is a leaked registration (it would tax the receive
        switching cost of every later deployment on that node).  Read by
        the leak sanitizer (``SAN204``).
        """
        return sorted(
            (node, stream_id)
            for node, streams in self._active_streams.items()
            for stream_id in sorted(streams)
        )

    def incoming_stream_count(self, node: int) -> int:
        """Streams currently terminating at ``node`` (min 1 for costing)."""
        return max(1, len(self._active_streams.get(node, ())))

    def _switch_cost(self, node: int) -> float:
        """Per-buffer source-switching cost at ``node``.

        ``penalty * (k-1)``: zero for a single incoming stream (point-to-
        point pays no switching), the full penalty per buffer when two
        streams alternate, escalating as more streams contend.
        """
        k = self.incoming_stream_count(node)
        return self.params.source_switch_penalty * (k - 1)

    def _stream_window(self, stream_id: str) -> TokenPool:
        """Token pool bounding in-flight buffers of one stream."""
        if stream_id not in self._stream_windows:
            self._stream_windows[stream_id] = TokenPool(
                self.sim,
                capacity=self.params.stream_window,
                name=f"torus-window[{stream_id}]",
                stock=self.params.stream_window,
            )
        return self._stream_windows[stream_id]

    # ------------------------------------------------------------------
    # Transfer
    # ------------------------------------------------------------------
    def send(self, buffer: WireBuffer, src: int, dst: int, deliver: Store):
        """Inject ``buffer`` at ``src`` bound for ``dst`` (generator).

        Mirrors MPI local-completion semantics: the generator returns once
        the sending co-processor has finished injecting the buffer; the rest
        of the journey (forwarding hops, receive processing, delivery into
        ``deliver``) continues on its own (``Simulator.detach``).
        """
        if src == dst:
            raise NetworkError(f"torus send with src == dst == {src}")
        path = self.route(src, dst)
        sim = self.sim
        flows = sim.obs.flows
        # Shallow-FIFO back-pressure: stall if too many of this stream's
        # buffers are still travelling or waiting at a busy co-processor.
        window = self._stream_window(buffer.stream_id)
        slot = window.get()
        # Here and below: an event that comes back processed was granted
        # synchronously (sim.resources); there is nothing to wait for.
        if slot.callbacks is not None:
            yield slot
        if flows.enabled:
            flows.hop(buffer, "torus.window", sim._now)
        wire = self.params.handling_time(buffer.nbytes) if not buffer.eos else 0.0
        # Injection: sending co-processor streams the packets onto the first
        # link; both are occupied for the buffer's handling time.
        coproc = self.coprocessor(src)
        coproc_req = coproc.request()
        try:
            if coproc_req.callbacks is not None:
                yield coproc_req
            link = self.link(path[0], path[1])
            link_req = link.request()
            try:
                if link_req.callbacks is not None:
                    yield link_req
                occupancy = self.params.injection_overhead + wire
                if self._link_slowdown:
                    occupancy *= self._link_slowdown.get((path[0], path[1]), 1.0)
                cost = self.jitter.apply(occupancy)
                yield Timeout(sim, cost)
            finally:
                link.release(link_req)
        finally:
            coproc.release(coproc_req)
        if flows.enabled:
            # Wait for the source co-processor + first link is queue_wait;
            # the injection itself is wire time.
            flows.hop(buffer, "torus.inject", sim._now, resource=coproc.name, wire=cost)
        obs = sim.obs
        if obs.enabled:
            # Wire bytes include padding to whole torus packets — the
            # mechanism behind the Figure 6 sub-1KB bandwidth collapse.
            padded = (
                0 if buffer.eos
                else self.params.packet_count(buffer.nbytes) * self.params.packet_bytes
            )
            counters = self._counters
            if counters is None:
                counters = self._counters = [obs.metrics.counter(f"torus.{name}") for name in (
                    "payload_bytes", "wire_bytes", "buffers_sent")]
            counters[0].value += buffer.nbytes
            counters[1].value += padded
            counters[2].value += 1.0
        # The remaining hops proceed asynchronously (cut-through across
        # buffers: the sender may inject buffer k+1 while k is forwarded),
        # from the end of the hop latency on: nothing is pushed at ``now``.
        self._in_flight[buffer.stream_id] = self._in_flight.get(buffer.stream_id, 0) + 1
        latency = self.params.hop_latency * (len(path) - 1)
        sim.detach(
            self._forward(buffer, path, wire, latency, deliver, window), Timeout(sim, latency)
        )

    def _forward(self, buffer: WireBuffer, path: List[int], wire: float, latency: float,
                 deliver: Store, window: TokenPool):
        """Forward ``buffer`` hop by hop, its hop latency over, deliver it,
        then give its slot back to ``window``, the pool it came from: buffer
        k's delivery may forget an unregistered stream's window while k+1,
        slot in hand, is still injecting."""
        # Explicit releases, no finally/with: a journey parked at the end holds on when collected.
        sim = self.sim
        flows = sim.obs.flows
        if flows.enabled:
            flows.hop(buffer, "torus.hops", sim._now, wire=latency)
        for position in range(1, len(path) - 1):
            node = path[position]
            coproc = self.coprocessor(node)
            coproc_req = coproc.request()
            if coproc_req.callbacks is not None:
                yield coproc_req
            link = self.link(node, path[position + 1])
            link_req = link.request()
            if link_req.callbacks is not None:
                yield link_req
            occupancy = self.params.forward_overhead + wire
            if self._link_slowdown:
                occupancy *= self._link_slowdown.get((node, path[position + 1]), 1.0)
            cost = self.jitter.apply(occupancy)
            yield Timeout(sim, cost)
            link.release(link_req)
            coproc.release(coproc_req)
            if flows.enabled:
                # One hop per intermediate node: the wait for its (possibly
                # busy) co-processor is exactly the Figure 7A/8 contention.
                flows.hop(
                    buffer, self._forward_stages[node], sim._now,
                    resource=coproc.name, wire=cost,
                )
        # receive_time(nbytes) is handling_time(nbytes) * receive_fraction.
        yield from self.receive(buffer, path[-1], wire * self.params.receive_fraction, deliver)
        # Delivery complete: free one in-flight slot of this stream.
        stream_id = buffer.stream_id
        freed = window.put(None)
        if freed.callbacks is not None:
            yield freed
        left = self._in_flight[stream_id] - 1
        if left:
            self._in_flight[stream_id] = left
        else:
            del self._in_flight[stream_id]
            if stream_id not in self._active_streams.get(path[-1], ()):
                self._release_stream(stream_id)

    def receive(self, buffer: WireBuffer, node: int, receive_work: float, deliver: Store):
        """Receive processing at ``node``'s co-processor, then the deposit
        into ``deliver`` (generator).

        The one receive sequence of both carriers: inbound TCP traffic
        forwarded by an I/O node over the tree network ends at the same
        single-threaded co-processor and pays the same source-switch
        penalty.  ``receive_work`` is the co-processor occupancy, computed
        by the caller for its medium.
        """
        sim = self.sim
        coproc = self.coprocessor(node)
        req = coproc.request()
        if req.callbacks is not None:
            yield req
        cost = self.params.receive_overhead + receive_work
        if not buffer.eos:
            cost += self._switch_cost(node)
        obs = sim.obs
        if obs.enabled:
            # Counted only: the switch cost above is rate-based.
            previous = self._last_source.get(node)
            if previous is not None and previous != buffer.source:
                obs.add("torus.source_switches")
                switches = self._node_switches.get(node)
                if switches is None:
                    switches = self._node_switches[node] = obs.metrics.counter(
                        f"torus.source_switches[node={node}]"
                    )
                switches.add()
            self._last_source[node] = buffer.source
        cost = self.jitter.apply(cost)
        yield Timeout(sim, cost)
        flows = obs.flows
        if flows.enabled:
            flows.hop(
                buffer, "torus.receive", sim._now, resource=coproc.name, processing=cost,
            )
        # Depositing into a full receive buffer blocks the co-processor:
        # this is the back-pressure that stalls upstream senders.
        deposited = deliver.put(buffer)
        if deposited.callbacks is not None:
            yield deposited
        if flows.enabled:
            flows.hop(buffer, "torus.deliver", sim._now)
        coproc.release(req)
