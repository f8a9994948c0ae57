"""Running processes: the executable unit of a continuous query.

A running process (RP) executes the subquery of one stream process on one
node (paper Figure 3).  It owns:

* the physical operators instantiated from its SQEP,
* one receiver driver + inbox per subscription (``input`` plan leaf),
* one sender driver per *subscriber* (an RP that extracts its output) —
  splitting a stream to several subscribers fans the result out to all of
  them, which is how the paper's radix2 query consumes ``extract(c)``
  twice,
* statistics used by the measurement harness.

The wiring between RPs (who subscribes to whom, over which channel) is done
by the coordinator layer before :meth:`RunningProcess.start`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.engine.context import ExecutionContext
from repro.engine.drivers import ReceiverDriver, SenderDriver
from repro.engine.inbox import Inbox
from repro.engine.objects import END_OF_STREAM
from repro.engine.operators.base import Operator
from repro.engine.operators.registry import operator_class
from repro.engine.settings import ExecutionSettings
from repro.engine.sqep import INPUT, OpSpec
from repro.hardware.environment import Environment
from repro.hardware.node import Node
from repro.sim import Interrupt, Store
from repro.util.errors import QueryExecutionError

#: Capacity of the object stores between operators inside one RP, and of
#: each subscriber's feed.
OPERATOR_QUEUE_DEPTH = 4

#: Simulated latency of one inter-RP control message (stop-condition
#: cancellation, subscriber removal).  Small against any data transfer.
CONTROL_MESSAGE_LATENCY = 100e-6


class InputPort:
    """A subscription of this RP to another stream process's output."""

    def __init__(self, producer_sp: str, inbox: Inbox, driver: ReceiverDriver):
        self.producer_sp = producer_sp
        self.inbox = inbox
        self.driver = driver
        # Filled at wiring time: the producer RP and the sender driver that
        # feeds this port, so stop-condition cancellation can reach back.
        self.upstream = None  # Optional[Tuple[RunningProcess, SenderDriver]]
        self.driver_process = None
        self.cancelled = False


class RunningProcess:
    """One running process executing a SQEP on a node."""

    def __init__(
        self,
        rp_id: str,
        env: Environment,
        node: Node,
        plan: OpSpec,
        settings: ExecutionSettings,
    ):
        self.rp_id = rp_id
        self.env = env
        self.node = node
        self.plan = plan
        self.settings = settings
        self.ctx = ExecutionContext(env, node, settings)
        self.operators: List[Operator] = []
        self.input_ports: List[InputPort] = []
        self.senders: List[SenderDriver] = []
        self.result_store: Optional[Store] = None
        self._cancelled = False
        self._root_process = None
        # Spawned by cancel_subscriber(): never joined (a drain has no end),
        # but terminated and counted live like every other process.
        self._cancellers: list = []
        self._built = False
        self._started = False
        self._stops_early = False  # the SQEP holds a stop condition (build)
        self._node_released = False
        node.acquire()

    # ------------------------------------------------------------------
    # Build: instantiate the SQEP against stores and drivers
    # ------------------------------------------------------------------
    def build(self) -> List[InputPort]:
        """Instantiate operators and receiver drivers; returns the inputs
        that still need wiring to their producers."""
        if self._built:
            raise QueryExecutionError(f"RP {self.rp_id} already built")
        self._built = True
        self.result_store = self._build_node(self.plan)
        self._stops_early = any(operator.stops_early for operator in self.operators)
        return self.input_ports

    def _build_node(self, spec: OpSpec) -> Store:
        output = Store(
            self.ctx.sim, capacity=OPERATOR_QUEUE_DEPTH, name=f"{self.rp_id}:{spec.name}.out"
        )
        if spec.name == INPUT:
            inbox = Inbox(
                self.ctx.sim,
                slots=self.settings.driver_slots,
                name=f"{self.rp_id}<-{spec.producer}",
            )
            driver = ReceiverDriver(
                self.ctx, inbox, output, stream_id=f"{spec.producer}->{self.rp_id}"
            )
            assert spec.producer is not None
            self.input_ports.append(InputPort(spec.producer, inbox, driver))
            return output
        inputs = [self._build_node(child) for child in spec.children]
        cls = operator_class(spec.name)
        operator = cls(self.ctx, inputs, output, *spec.args)
        self.operators.append(operator)
        return output

    # ------------------------------------------------------------------
    # Wiring: subscribers attach before start
    # ------------------------------------------------------------------
    def add_subscriber(self, subscriber_rp: "RunningProcess", inbox: Inbox) -> None:
        """Attach a subscriber: this RP's output will stream to ``inbox``."""
        if self._started:
            raise QueryExecutionError(f"RP {self.rp_id}: cannot subscribe after start")
        source = Store(
            self.ctx.sim,
            capacity=OPERATOR_QUEUE_DEPTH,
            name=f"{self.rp_id}->{subscriber_rp.rp_id}.feed",
        )
        stream_id = f"{self.rp_id}->{subscriber_rp.rp_id}"
        channel = self.env.open_channel(self.node, subscriber_rp.node, inbox, stream_id)
        sender = SenderDriver(self.ctx, source, channel, stream_id)
        self.senders.append(sender)
        # Backlink so the subscriber can cancel this subscription later.
        for port in subscriber_rp.input_ports:
            if port.inbox is inbox:
                port.upstream = (self, sender)
                break

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self, failure=None) -> None:
        """Spawn all of this RP's simulation processes.

        Args:
            failure: Optional event to fail with the first exception any of
                this RP's processes raises (interrupts excluded), so the
                query's driver can abort promptly instead of deadlocking on
                a stream that will never end (the processes' failure link).
        """
        if not self._built:
            raise QueryExecutionError(f"RP {self.rp_id}: build() before start()")
        if self._started:
            raise QueryExecutionError(f"RP {self.rp_id} already started")
        self._started = True
        ctx = self.ctx
        ctx.failure = failure
        for operator in self.operators:
            # Operators are built children-first: the last is the root.
            self._root_process = ctx.spawn(operator.run(), name=f"{self.rp_id}:{operator.name}")
        for port in self.input_ports:
            port.driver_process = ctx.spawn(
                port.driver.run(), name=f"{self.rp_id}:recv[{port.producer_sp}]"
            )
        if not self.operators and self.input_ports:
            # Plan root is a bare subscription: the receiver produces the result.
            self._root_process = self.input_ports[0].driver_process
        if self.senders:
            ctx.spawn(self._fan_out(), name=f"{self.rp_id}:fanout")
            for sender in self.senders:
                sender.process = ctx.spawn(sender.run(), name=f"{self.rp_id}:{sender.stream_id}")
        if self._stops_early and self.input_ports:
            # When the result stream completes while subscriptions are still
            # live, cancel the leftovers and notify the producers (section
            # 2.2's control messages).
            self._root_process.callbacks.append(self._supervise)

    def _fan_out(self):
        """Copy the result stream to every subscriber's sender feed."""
        assert self.result_store is not None
        while True:
            got = self.result_store.get()
            obj = got._value if got.callbacks is None else (yield got)
            for sender in self.senders:
                if sender.cancelled:
                    continue  # subscriber was cancelled by a stop condition
                queued = sender.source.put(obj)
                if queued.callbacks is not None:
                    yield queued
            if obj is END_OF_STREAM:
                return

    # ------------------------------------------------------------------
    # Stop-condition cancellation (paper section 2.2 control messages)
    # ------------------------------------------------------------------
    def _supervise(self, root) -> None:
        """Cancel leftover subscriptions once the result stream completed
        (a callback on the root process; only the round trip is a process)."""
        if not root._ok or self._cancelled:
            return  # crashed (its failure link reports it), stopped or cancelled
        live = [
            port
            for port in self.input_ports
            if port.driver_process is not None
            and port.driver_process.is_alive
            and not port.cancelled
        ]
        if live:
            self.ctx.spawn(self._cancel_ports(live), name=f"{self.rp_id}:cancel")

    def _cancel_ports(self, ports):
        """Tear down input subscriptions now; returns the control round
        trip that notifies their producers, to run as a process."""
        for port in ports:
            port.cancelled = True
            process = port.driver_process
            if process is not None and process.is_alive:
                process.interrupt("stop condition")
                process.defuse()
        return self._notify_producers(ports, self.ctx.sim.timeout(CONTROL_MESSAGE_LATENCY))

    @staticmethod
    def _notify_producers(ports, round_trip):
        yield round_trip
        for port in ports:
            if port.upstream is not None:
                producer, sender = port.upstream
                producer.cancel_subscriber(sender)

    def cancel_subscriber(self, sender: SenderDriver) -> None:
        """Handle a subscriber's cancellation control message.

        The sender feeding that subscriber is stopped; if no subscriber
        remains, this whole RP is cancelled and the cancellation cascades
        to *its* producers — so an unbounded source upstream of a satisfied
        stop condition terminates.
        """
        if sender.cancelled:
            return
        sender.cancelled = True
        process = sender.process
        if process is not None and process.is_alive:
            process.interrupt("subscriber cancelled")
            process.defuse()
        if not all(s.cancelled for s in self.senders):
            # Unblock (and keep draining) any pending fan-out put.
            self._cancellers.append(
                self.ctx.sim.process(self._drain(sender.source), name=f"{self.rp_id}:drain")
            )
        else:
            self._cancelled = True
            # No subscriber left: stop producing and cascade upstream.
            self.terminate()
            live = [
                port
                for port in self.input_ports
                if port.upstream is not None and not port.cancelled
            ]
            if live:
                self._cancellers.append(self.ctx.sim.process(
                    self._cascade(live), name=f"{self.rp_id}:cascade"
                ))

    def _cascade(self, ports):
        yield from self._cancel_ports(ports)  # once the interrupts above ran

    @staticmethod
    def _drain(store: Store):
        """Discard everything a cancelled subscriber's feed receives."""
        while True:
            yield store.get()

    def terminate(self) -> None:
        """Interrupt every live process of this RP (query stop).

        Mirrors the control message that "terminates execution upon a stop
        condition": operator and driver processes receive an Interrupt at
        the current simulated time; resources held through ``with`` blocks
        are released on unwind.  Detached network activity is cut loose
        too: inboxes close so in-flight deliveries drop instead of wedging
        the destination co-processor, and outgoing carriers abort so their
        ingress coordination state stops taxing later deployments.
        """
        transmitters = [
            sender.transmit_process
            for sender in self.senders
            if sender.transmit_process is not None
        ]
        for process in self.ctx.processes + self._cancellers + transmitters:
            if process.is_alive:
                process.interrupt("query stopped")
                # The interruption is intentional; nobody will re-raise it.
                process.defuse()
        for port in self.input_ports:
            port.inbox.close()
        for sender in self.senders:
            sender.channel.abort()

    def join(self):
        """Generator: wait for every process of this RP to finish.

        Tolerates processes that ended by interruption (terminated query).

        Lifetime: once joined, the RP keeps only what its report reads
        (operators, drivers and their counters).  It lets go of its ended
        processes — ``ctx.processes``, the root, each sender's ``process``
        and ``transmit_process``, each port's ``driver_process`` — and of
        the query's failure event, so a finished query carries no dead
        process into later collections.  Nothing dropped is alive, so
        :meth:`live_processes`, :meth:`census` and :meth:`terminate` read
        the same.  A transmitter still alive (its carrier wedged) is kept
        for the census to find.
        """
        processes = self.ctx.processes
        for process in processes:
            try:
                yield process
            except Interrupt:
                pass
        processes.clear()
        self._root_process = None
        self.ctx.failure = None
        for port in self.input_ports:
            port.driver_process = None
        for sender in self.senders:
            sender.process = None
            transmitter = sender.transmit_process
            if transmitter is not None and not transmitter.is_alive:
                sender.transmit_process = None
        self.release_node()

    def release_node(self) -> None:
        """Return this RP's node slot to the CNDB (idempotent).

        Called by :meth:`join` on normal completion and by deployment
        teardown for RPs that never joined (crashed or stopped queries), so
        the environment can host further deployments.
        """
        if not self._node_released:
            self._node_released = True
            self.node.release()

    # ------------------------------------------------------------------
    # Census (the engine half of the leak/liveness sanitizer)
    # ------------------------------------------------------------------
    @property
    def node_released(self) -> bool:
        """True once this RP's node slot went back to its CNDB."""
        return self._node_released

    def live_processes(self) -> list:
        """Every kernel process of this RP that is still alive.

        Includes the senders' transmit processes: they outlive a normal
        driver shutdown only when a carrier wedged, which is exactly what
        the sanitizer is looking for.
        """
        transmitters = [
            sender.transmit_process
            for sender in self.senders
            if sender.transmit_process is not None
        ]
        return [
            process
            for process in self.ctx.processes + self._cancellers + transmitters
            if process.is_alive
        ]

    def kernel_stores(self) -> List[Store]:
        """Every kernel store this RP's processes block on.

        Operator queues, subscriber feeds and the input inbox pools — the
        population the liveness analyzer classifies bare wait events against.
        """
        stores: List[Store] = []
        if self.result_store is not None:
            stores.append(self.result_store)
        stores.extend(sender.source for sender in self.senders)
        for port in self.input_ports:
            stores.extend(port.inbox.kernel_stores())
        return stores

    def census(self) -> dict:
        """Quiescence-relevant state of this RP as plain data.

        Read by the leak sanitizer after teardown: a quiescent RP has no
        live processes, only closed inboxes, no blocked store getters, and
        a released node slot.
        """
        return {
            "rp_id": self.rp_id,
            "live_processes": [p.name for p in self.live_processes()],
            "open_inboxes": [
                port.inbox.name
                for port in self.input_ports
                if not port.inbox.closed
            ],
            "pending_gets": sum(
                store.pending_gets for store in self.kernel_stores()
            ),
            "node_released": self._node_released,
        }

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def bytes_sent(self) -> int:
        return sum(s.bytes_sent for s in self.senders)

    @property
    def bytes_received(self) -> int:
        return sum(p.driver.bytes_received for p in self.input_ports)

    def __repr__(self) -> str:
        return f"<RP {self.rp_id} on {self.node.node_id} root={self.plan.name}>"
