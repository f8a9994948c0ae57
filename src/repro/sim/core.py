"""The discrete-event simulator: event queue and scheduler.

:class:`Simulator` owns simulated time.  Time only advances when the event
queue is stepped; all network transfers, buffer marshaling, and co-processor
contention in the library are expressed as events on one simulator instance.

The pending-event set lives in a pluggable :mod:`repro.sim.scheduler`
backend.  The default :class:`~repro.sim.scheduler.CalendarQueue` exploits
the kernel's same-timestamp burst pattern and is drained bucket-at-a-time by
:meth:`Simulator._run_batched`; the reference
:class:`~repro.sim.scheduler.HeapScheduler` keeps the classic binary heap
and is driven one event at a time by :meth:`Simulator.step`.  Both dispatch
in the identical ``(when, rank, seq)`` total order, so simulated results are
bit-identical across backends.  The chaos
:class:`~repro.sim.scheduler.ShuffleScheduler` is a calendar queue that
permutes only the same-``(when, rank)`` tie-break, so a chaos replay runs
the production drain loop.

Typical use::

    sim = Simulator()

    def producer(sim, store):
        for i in range(3):
            yield sim.timeout(1.0)
            yield store.put(i)

    store = Store(sim)
    sim.process(producer(sim, store))
    sim.run()
"""

from __future__ import annotations

import gc
from heapq import heappop
from typing import Any, Generator, Iterable, Optional, Union

from repro.obs.null import NULL_OBS, NullInstrumentation
from repro.sim.events import AnyOf, Detached, Event, Process, Timeout
from repro.sim.scheduler import _BUSY, EventScheduler, make_scheduler
from repro.util.errors import SimulationError

_INF = float("inf")

#: Generation-0 collection threshold while :meth:`Simulator.run` drains.
#: A run makes no cyclic garbage, so a young collection inside it walks the
#: live session and frees nothing.  Gen-1 and full collections keep the
#: caller's thresholds and counts: nothing is frozen, and dead sessions are
#: still freed.  10 000 is the smallest value whose in-drain collector time
#: on a 1 024-query session is within noise of 100 000's and 1 000 000's
#: (43 ms at 5 000, 111 ms at the default 700; docs/performance.md, "The
#: collector and a live session").
_RUN_GEN0_THRESHOLD = 10_000


class Simulator:
    """A deterministic discrete-event simulation scheduler.

    Args:
        obs: Instrumentation hub; defaults to the shared disabled hub.
        scheduler: Event-queue backend — a name from
            :data:`repro.sim.scheduler.SCHEDULERS` (``"calendar"``,
            ``"heap"``, ``"shuffle"``), a ready :class:`~repro.sim.scheduler.EventScheduler`
            instance, or ``None`` for the default calendar queue.
    """

    __slots__ = (
        "_now",
        "_scheduler",
        "_push",
        "_inst",
        "_done",
        "obs",
        "events_dispatched",
        "timeouts_created",
    )

    def __init__(
        self,
        obs: Optional[NullInstrumentation] = None,
        scheduler: Union[str, EventScheduler, None] = None,
    ) -> None:
        self._now: float = 0.0
        self._scheduler: EventScheduler = make_scheduler(scheduler)
        # Bound once: the inline scheduling sites in sim.events/sim.resources
        # (Event.succeed, Timeout.__init__, Resource grants, Store handoffs)
        # call ``sim._push(when, rank, event)`` directly, so the backend is
        # one attribute load away from the hot path.
        self._push = (
            self._scheduler.push if self._scheduler.batched else self._push_tracked
        )
        # Pending view (sim.scheduler) of the instant being dispatched.  When
        # ``_inst[1][-1] is None and _inst[0][-1] is None`` nothing else is
        # pending at ``now`` and the event being dispatched had one callback:
        # a grant made now would be the next event dispatched, so
        # Resource.request / Store.put / Store.get return it already
        # processed.  ``_BUSY`` outside a dispatch and under other events.
        self._inst: Any = _BUSY
        done = self._done = Event(self)  # what a synchronous Store.put returns
        done.callbacks = None
        done._ok = True
        done._value = None
        #: Events dispatched over this simulator's lifetime.  Counted by the
        #: drain loops themselves (no obs hook needed), so throughput
        #: figures can report events/sec on uninstrumented runs.
        self.events_dispatched: int = 0
        #: Timeouts created while observed (``Timeout.__init__``, hub-guarded).
        self.timeouts_created: int = 0
        # Observability hub; NULL_OBS.enabled is False, so every hook site
        # reduces to one attribute check when no instrumentation was asked
        # for (the null hub is shared by all uninstrumented simulators).
        self.obs: NullInstrumentation = obs if obs is not None else NULL_OBS
        if self.obs.enabled:
            self.obs.bind(self)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def scheduler(self) -> EventScheduler:
        """The event-queue backend this simulator dispatches from."""
        return self._scheduler

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def detach(self, generator: Generator, start: Optional[Event] = None) -> None:
        """Run ``generator`` from ``start`` on with no process around it
        (kernel-internal, see :class:`~repro.sim.events.Detached`)."""
        Detached(self, generator, start)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when any of ``events`` has triggered."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        return self._scheduler.next_time()

    def _push_tracked(self, when: float, rank: int, event: Event) -> None:
        """``_push`` of a non-batched backend, whose pending view is a
        constant taken when the dispatch began: a push at ``now`` flips it."""
        if when == self._now:
            self._inst = _BUSY
        self._scheduler.push(when, rank, event)

    def step(self) -> None:
        """Process exactly one event.

        Raises:
            SimulationError: If the queue is empty, or an event failed and no
                process handled (defused) its exception.
        """
        entry = self._scheduler.pop()
        if entry is None:
            raise SimulationError("cannot step an empty event queue")
        when, event = entry
        if when < self._now:
            raise SimulationError("event scheduled in the past (scheduler bug)")
        self._now = when
        self.events_dispatched += 1
        if self.obs.live.enabled:
            self.obs.live.on_step(when)
        callbacks = event.callbacks
        event.callbacks = None
        if len(callbacks) == 1:
            # Most events have exactly one waiter (the process that yielded
            # them); only then may a grant be synchronous (see ``_inst``).
            self._inst = self._scheduler._pending_view(when)
            try:
                callbacks[0](event)
            finally:
                self._inst = _BUSY
        else:
            for callback in callbacks:
                callback(event)
        if event._ok is False and not event._defused:
            exc = event._value
            raise SimulationError(
                f"unhandled failure in simulation: {exc!r}"
            ) from exc

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulated time reaches ``until``.

        For the length of the drain the collector's generation-0 threshold
        is raised to ``_RUN_GEN0_THRESHOLD``; the caller's thresholds are
        restored on every exit, an exception's included.  A caller's
        threshold of 0 (automatic collection off) stays 0.

        Returns:
            The simulated time when the run stopped.
        """
        if until is None:
            horizon = _INF
        elif until < self._now:
            raise SimulationError(f"cannot run until {until!r}, already at {self._now!r}")
        else:
            horizon = until
        threshold = gc.get_threshold()
        if threshold[0]:
            gc.set_threshold(_RUN_GEN0_THRESHOLD, *threshold[1:])
        try:
            if self._scheduler.batched:
                self._run_batched(horizon)
            else:
                next_time = self._scheduler.next_time
                while True:
                    when = next_time()
                    if when == _INF or when > horizon:
                        break
                    self.step()
        finally:
            gc.set_threshold(*threshold)
        if until is not None:
            self._now = until  # stopped at the horizon, or drained before it
        return self._now

    def _run_batched(self, horizon: float) -> None:
        """Drain a batched scheduler (a calendar queue, the chaos shuffle
        included) bucket-at-a-time.

        One bucket holds every event of one distinct timestamp; the loop
        sets ``self._now`` once per bucket and dispatches the whole run
        without re-entering the scheduler.  The urgent list is re-checked
        before every dispatch and the list lengths are re-read live, so
        events scheduled *during* the drain — same-time handoffs, urgent
        interrupts — are picked up in exactly the ``(when, rank, seq)``
        order the heap backend would produce.  The body of the dispatch
        must stay semantically identical to step().
        """
        scheduler = self._scheduler
        # The hub is fixed for the simulator's life, so the enabled check
        # (and the bound hook) is resolved once per run, not once per event.
        # Only a live sampler is told of each event: it is its window clock.
        on_step = self.obs.live.on_step if self.obs.live.enabled else None
        times = scheduler._times
        buckets = scheduler._buckets
        dispatched = 0
        try:
            while times:
                when = times[0]
                if when > horizon:
                    break
                if when < self._now:
                    raise SimulationError("event scheduled in the past (scheduler bug)")
                self._now = when
                bucket = self._inst = buckets[when]  # its own pending view
                urgent = bucket[0]
                normal = bucket[1]
                # The cursors live in locals for the drain: callbacks only
                # ever *append* to the bucket's lists (via push), never touch
                # the cursors, so the write-back in the finally is the single
                # point of truth if a dispatch raises mid-bucket.
                ui = bucket[2]
                ni = bucket[3]
                try:
                    while True:
                        # Consumed slots are nulled out so event objects are
                        # freed as they dispatch; a long same-time bucket
                        # would otherwise pin every event of the burst live
                        # and stall the cyclic GC on the growing list.
                        if ui < len(urgent):
                            event = urgent[ui]
                            urgent[ui] = None
                            ui += 1
                        elif ni < len(normal):
                            event = normal[ni]
                            normal[ni] = None
                            ni += 1
                        else:
                            break
                        if on_step is not None:
                            on_step(when)
                        callbacks = event.callbacks
                        event.callbacks = None
                        if len(callbacks) == 1:
                            callbacks[0](event)
                        else:
                            self._inst = _BUSY
                            for callback in callbacks:
                                callback(event)
                            self._inst = bucket
                        if event._ok is False and not event._defused:
                            exc = event._value
                            raise SimulationError(
                                f"unhandled failure in simulation: {exc!r}"
                            ) from exc
                finally:
                    dispatched += ui - bucket[2] + ni - bucket[3]
                    bucket[2] = ui
                    bucket[3] = ni
                del buckets[when]
                heappop(times)
        finally:
            self._inst = _BUSY
            self.events_dispatched += dispatched

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Start ``generator`` as a process, run to completion, return its value.

        This is the main entry point used by the measurement harness: it runs
        the whole simulation until the queue drains and returns the root
        process's return value (re-raising its exception if it failed).
        """
        proc = self.process(generator, name=name)
        # The root process's failure is re-raised below, so its exception is
        # handled; mark it defused to keep step() from flagging it first.
        proc.defuse()
        self.run()
        if not proc.triggered:
            raise SimulationError(
                f"simulation deadlocked: process {proc.name!r} never finished "
                f"(no more events at t={self._now})"
            )
        if not proc.ok:
            raise proc.value
        return proc.value
