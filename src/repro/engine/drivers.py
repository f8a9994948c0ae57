"""Sender and receiver stream-carrier drivers.

These are the components of the paper's Figure 3 running process that touch
the network: the **sender driver** marshals operator output into send
buffers and transmits them over a channel; the **receiver driver** accepts
wire buffers from its inbox and de-marshals them back into objects for the
operators.

Both drivers implement the single/double buffering distinction measured in
Figures 6 and 8:

* The sender owns ``slots`` send buffers (1 or 2).  Marshaling a buffer
  requires owning it; transmission returns it when the channel reports
  local completion.  With one buffer, marshal and send strictly alternate;
  with two, the CPU marshals buffer k+1 while the co-processor transmits
  buffer k.
* The receiver's :class:`~repro.engine.inbox.Inbox` holds 1 or 2 receive
  slots; the slot is returned only after de-marshaling, so with a single
  slot the network stalls while the CPU drains the buffer.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.context import ExecutionContext
from repro.engine.inbox import Inbox
from repro.engine.marshal import StreamDemarshaller, StreamMarshaller
from repro.engine.objects import END_OF_STREAM
from repro.net.channels import Channel
from repro.sim import Store, Timeout, TokenPool, wake

#: What a woken flush wait receives in place of an object (``_flush_due``).
_FLUSH_DUE = object()


class SenderDriver:
    """Marshals an object stream and sends it over one channel."""

    def __init__(
        self,
        ctx: ExecutionContext,
        source: Store,
        channel: Channel,
        stream_id: str,
        buffer_bytes: Optional[int] = None,
    ):
        self.ctx = ctx
        self.source = source
        self.channel = channel
        self.stream_id = stream_id
        # TCP carriers impose their own segment size; MPI carriers use the
        # query's buffer-size setting (the Figure 6/8 experimental knob).
        self.buffer_bytes = (
            channel.preferred_buffer_bytes
            if channel.preferred_buffer_bytes is not None
            else (buffer_bytes or ctx.settings.mpi_buffer_bytes)
        )
        self.bytes_sent = 0
        self.buffers_sent = 0
        self._tokens = TokenPool(
            ctx.sim, capacity=2, name=f"{stream_id}.send-tokens",
            stock=ctx.settings.driver_slots,
        )
        self._outbox = Store(ctx.sim, name=f"{stream_id}.outbox")
        self._pending_since: Optional[float] = None
        # The partial buffer's flush timer, armed at its first wait, and the
        # get that wait parked on (``_next_object``).
        self._flush_timer: Optional[Timeout] = None
        self._parked = None
        # The driver's own process and its transmit sub-process (detached
        # from it), exposed so RP cancellation and termination can reach them.
        self.process = None
        self.transmit_process = None
        self.cancelled = False  # the subscriber sent its stop-condition message

    def run(self):
        """Driver main process: marshal loop plus a transmit sub-process."""
        yield from self.channel.open()
        transmitter = self.ctx.sim.process(
            self._transmit(),
            name=f"send[{self.stream_id}]",  # lint: disable=DET008 (once per stream)
        )
        self.transmit_process = transmitter
        marshaller = StreamMarshaller(
            self.stream_id, self.ctx.node.node_id, self.buffer_bytes
        )
        while True:
            got = self.source.get()
            if got.callbacks is None:
                obj = got._value
            elif self._pending_since is None:
                obj = yield got  # nothing to flush: the bare get
            else:
                obj = yield from self._next_object(got, marshaller)
            if obj is END_OF_STREAM:
                break
            for buffer in marshaller.add(obj):
                yield from self._emit(buffer)
            if not marshaller._pending_bytes:
                self._pending_since = None
            elif self._pending_since is None:
                self._pending_since = self.ctx.sim._now
                self._flush_timer = None  # a new partial buffer
        tail = marshaller.flush()
        if tail is not None:
            yield from self._emit(tail)
        eos = marshaller.end_of_stream()
        obs = self.ctx.sim.obs
        if obs.flows.enabled:
            obs.flows.begin(eos, self.ctx.sim._now)
        yield self._tokens.get()  # own a buffer for the EOS marker too
        yield self._outbox.put(eos)
        yield transmitter  # join: all buffers transmitted
        yield from self.channel.close()

    def _next_object(self, get_event, marshaller: StreamMarshaller):
        """Wait for the pending ``get_event``, flushing over-age partial buffers.

        In a continuous query a low-rate stream (one aggregate per window)
        may never fill a send buffer; once the *oldest* pending byte is
        ``flush_interval`` old the partial buffer is sent, so subscribers
        see results promptly whether the stream trickles or stalls.

        The wait is the bare get, so a get that wins resumes the driver
        directly and a wait pays only for what fires.  A partial buffer
        arms one timer, at its first wait.  If it fires while the driver is
        parked on a get, :func:`~repro.sim.events.wake` resumes the driver
        through one normal-rank event and leaves the get queued in the
        store, where a condition over the get and the timer would have
        resumed it.  A timer that fires elsewhere (inside ``_emit``) wakes
        nothing: the flush happens at the next wait, whose deadline has
        passed.
        """
        sim = self.ctx.sim
        # Bytes are pending exactly while ``_pending_since`` is set (run()).
        while self._pending_since is not None and not get_event.triggered:
            remaining = self._pending_since + self.ctx.settings.flush_interval - sim._now
            if remaining <= 0:
                tail = marshaller.flush()
                self._pending_since = None
                if tail is not None:
                    yield from self._emit(tail)
                break
            timer = self._flush_timer
            if timer is None or timer.callbacks is None:  # none yet, or it fired early
                timer = self._flush_timer = Timeout(sim, remaining)
                timer.callbacks.append(self._flush_due)
            self._parked = get_event
            obj = yield get_event
            if obj is not _FLUSH_DUE:
                return obj
        return get_event._value if get_event.callbacks is None else (yield get_event)

    def _flush_due(self, timer: Timeout) -> None:
        """A flush timer fired: wake the driver if the timer is its partial
        buffer's and the driver is parked on that buffer's wait."""
        if timer is self._flush_timer:
            wake(self._parked, _FLUSH_DUE)

    def _emit(self, buffer):
        """Acquire a send buffer, marshal into it, hand it to the transmitter."""
        sim = self.ctx.sim
        flows = sim.obs.flows
        if flows.enabled:
            # Flow birth: the buffer exists, latency accrues from here.
            flows.begin(buffer, sim._now)
        token = self._tokens.get()
        # Here and below: an event that comes back processed completed
        # synchronously (sim.resources); there is nothing to wait for.
        if token.callbacks is not None:
            yield token
        marshal_start = sim._now if flows.enabled else 0.0
        yield from self.ctx.charge_cpu(self.ctx.marshal_cost(buffer.nbytes))
        if flows.enabled:
            # Send-token wait lands in queue_wait; the marshal interval
            # (CPU contention included) is the serialize component.
            flows.hop(
                buffer, "sender.marshal", sim._now,
                resource=self.ctx.cpu.name,
                serialize=sim._now - marshal_start,
            )
        queued = self._outbox.put(buffer)
        if queued.callbacks is not None:
            yield queued
        self.bytes_sent += buffer.nbytes
        self.buffers_sent += 1

    def _transmit(self):
        """Send marshaled buffers in order, returning tokens on completion."""
        flows = self.ctx.sim.obs.flows
        while True:
            got = self._outbox.get()
            buffer = got._value if got.callbacks is None else (yield got)
            if flows.enabled:
                # Dwell in the outbox queue behind earlier buffers.
                flows.hop(buffer, "sender.outbox", self.ctx.sim._now)
            yield from self.channel.send(buffer)
            freed = self._tokens.put(None)
            if freed.callbacks is not None:
                yield freed
            if buffer.eos:
                return


class ReceiverDriver:
    """De-marshals wire buffers from one producer into an object store."""

    def __init__(self, ctx: ExecutionContext, inbox: Inbox, output: Store, stream_id: str):
        self.ctx = ctx
        self.inbox = inbox
        self.output = output
        self.stream_id = stream_id
        self.bytes_received = 0
        self.buffers_received = 0

    def run(self):
        """Driver main process: drain inbox, de-marshal, emit objects + EOS."""
        demarshaller = StreamDemarshaller()
        sim = self.ctx.sim
        flows = sim.obs.flows
        while True:
            got = self.inbox.get()
            buffer = got._value if got.callbacks is None else (yield got)
            if buffer.eos:
                if flows.enabled:
                    flows.complete(buffer, sim._now)
                    # The stream is over: a data buffer the EOS overtook in
                    # the network can never be consumed, so its record is
                    # dropped rather than leaked in the in-flight table.
                    flows.drop_stream(self.stream_id)
                yield self.inbox.release()
                break
            if flows.enabled:
                # Dwell in the inbox between deposit and pick-up.
                flows.hop(buffer, "receiver.inbox", sim._now)
                demarshal_start = sim._now
            yield from self.ctx.charge_cpu(self.ctx.demarshal_cost(buffer.nbytes))
            if flows.enabled:
                flows.hop(
                    buffer, "receiver.demarshal", sim._now,
                    resource=self.ctx.cpu.name,
                    processing=sim._now - demarshal_start,
                )
                flows.complete(buffer, sim._now)
            objects = demarshaller.accept(buffer)
            freed = self.inbox.release()
            if freed.callbacks is not None:
                yield freed
            self.bytes_received += buffer.nbytes
            self.buffers_received += 1
            for obj in objects:
                queued = self.output.put(obj)
                if queued.callbacks is not None:
                    yield queued
        yield self.output.put(END_OF_STREAM)
