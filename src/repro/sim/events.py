"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic process-interaction style (as popularized by
SimPy): simulation *processes* are Python generators that ``yield`` events;
the scheduler resumes a process when the event it waits on is triggered.

Event life cycle::

    created --> triggered (scheduled, has value) --> processed (callbacks ran)

An event may be triggered exactly once, either successfully (:meth:`Event.succeed`)
or with an exception (:meth:`Event.fail`).  Failing events propagate their
exception into every waiting process, which may catch it with ``try/except``
around the ``yield``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, List, Optional

from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Simulator

# Sentinel distinguishing "no value yet" from a legitimate None value.
_PENDING = object()

# Queue-entry ranks; the scheduler (repro.sim.core) imports these.  Urgent
# events (process initialization, interrupts) run before normal events
# scheduled for the same instant.  The values double as bucket-list indices
# in repro.sim.scheduler.CalendarQueue, so they must stay 0 and 1.
_URGENT = 0
_NORMAL = 1


class Event:
    """A one-shot occurrence in simulated time that processes can wait on."""

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        # A failed event whose exception was delivered somewhere is "defused";
        # an undelivered failure crashes the simulation (errors never pass
        # silently).
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled for processing."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event was triggered successfully.

        Raises:
            SimulationError: If the event has not been triggered yet.
        """
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or exception if it failed).

        Raises:
            SimulationError: If the event has not been triggered yet.
        """
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value`` as payload."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined zero-delay normal-priority scheduling (the hottest path in
        # the kernel: every store handoff and resource grant goes through
        # here); equivalent to ``self.sim._schedule(self)``.
        sim = self.sim
        sim._push(sim._now, _NORMAL, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception as payload.

        The exception is re-raised inside every process waiting on the event.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() requires an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._push(sim._now, _NORMAL, self)
        return self

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately at the current time.
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        # Field-by-field init (no super() chain) plus an inlined schedule:
        # timeouts model every wire/processing latency, so this constructor
        # runs once per modelled delay.
        self.sim = sim
        self.callbacks = []
        self._defused = False
        self.delay = delay
        self._ok = True
        self._value = value
        sim._push(sim._now + delay, _NORMAL, self)
        if sim.obs.enabled:
            sim.timeouts_created += 1

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r}>"


class Initialize(Event):
    """Internal event used to start a newly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process") -> None:
        # Field-by-field init and an inlined urgent push, as in Timeout: one
        # of these per process started.
        self.sim = sim
        self.callbacks = [process._resume]
        self._defused = False
        self._ok = True
        self._value = None
        sim._push(sim._now, _URGENT, self)


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    Attributes:
        cause: Arbitrary value describing why the interrupt happened.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running simulation process wrapping a generator.

    A process is itself an event that triggers when the generator finishes:
    successfully with the generator's return value, or with the exception
    that escaped it.  Waiting on a process (``yield other_process``) is the
    join operation.
    """

    __slots__ = ("name", "_generator", "_target")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        # Field-by-field init (no super() chain), as Initialize above.
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process body must be a generator, got {generator!r}")
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._target: Optional[Event] = Initialize(sim, self)
        if sim.obs.enabled:
            sim.obs.on_process_created(self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def defuse(self) -> None:
        """Declare this process's failure handled by whoever holds it.

        The kernel raises on a failed event nobody handles; a process that
        is interrupted on purpose, or whose exception its owner re-raises
        itself, must not trip that check.
        """
        self._defused = True

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        interrupt_event = Event(self.sim)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True  # failure is delivered, never unhandled
        interrupt_event.callbacks.append(self._resume)
        self.sim._schedule(interrupt_event, priority=True)
        if self.sim.obs.enabled:
            self.sim.obs.on_interrupt(self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or exception) of ``event``."""
        if self._value is not _PENDING:
            # Interrupted after completion of the same step; nothing to do.
            return
        # Detach from the event we were actually waiting on (relevant for
        # interrupts, which arrive while self._target is still pending).
        # Common case first: the triggering event IS our target.
        target = self._target
        if target is not event and target is not None:
            if target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        sim = self.sim
        # One pass per event handed to the generator: a yielded event that is
        # already processed (a join on a finished process) is delivered at
        # once by going round again — a loop, not recursion, so any number
        # of them may follow each other.
        while True:
            self._target = None
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # Mark the failure as handled: it is being delivered.
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                self._generator = None  # exhausted: the frame can go now
                self._ok = True
                self._value = stop.value
                sim._push(sim._now, _NORMAL, self)
                if sim.obs.enabled:
                    sim.obs.on_process_finished(self, ok=True)
                return
            except BaseException as exc:  # noqa: BLE001 - process bodies may raise anything
                self._generator = None
                self._ok = False
                self._value = exc
                sim._push(sim._now, _NORMAL, self)
                if sim.obs.enabled:
                    sim.obs.on_process_finished(self, ok=False)
                return
            if not isinstance(next_event, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
            if next_event.sim is not sim:
                raise SimulationError(
                    f"process {self.name!r} yielded an event from another simulator"
                )
            self._target = next_event
            callbacks = next_event.callbacks
            if callbacks is not None:
                callbacks.append(self._resume)
                return
            event = next_event

    def __repr__(self) -> str:
        state = "finished" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"


class Detached:
    """Drives a generator nobody joins, interrupts or names (a buffer in
    flight): no :class:`Process`, no completion event.  It starts when
    ``start`` is dispatched — by default an urgent zero-delay event, where
    :class:`Initialize` would sit; a caller whose generator would open with
    an event passes that event instead, and pushes nothing at ``now``.
    Started by :meth:`~repro.sim.core.Simulator.detach`."""

    __slots__ = ("_generator",)
    is_alive = True  # only ever seen parked on an event (sim.introspect)

    def __init__(self, sim: "Simulator", generator: Generator, start: Optional[Event]) -> None:
        self._generator = generator
        if start is None:
            start = Event(sim)
            start._ok = True
            start._value = None
            sim._push(sim._now, _URGENT, start)
        start.callbacks.append(self._resume)

    def _resume(self, event: Event) -> None:
        """:meth:`Process._resume` without a target, a name or an end event."""
        generator = self._generator
        while True:
            try:
                if event._ok:
                    event = generator.send(event._value)
                else:
                    event._defused = True
                    event = generator.throw(event._value)
            except StopIteration:
                return
            except Exception as exc:  # nobody joins: it must stop run() itself
                raise SimulationError(f"unhandled failure in simulation: {exc!r}") from exc
            callbacks = event.callbacks
            if callbacks is not None:
                callbacks.append(self._resume)
                return


def wake(event: Event, value: Any = None) -> bool:
    """Resume the process parked on ``event`` now, leaving ``event`` pending.

    The process is detached from ``event`` and resumed through one
    normal-rank event pushed at the current instant, whose value is
    ``value``: it runs after everything already queued at this instant,
    where a condition over ``event`` that fired now would resume it.
    ``event`` keeps its place (a store get stays queued and takes the next
    item), and the process collects it by yielding it again.  Returns
    ``False``, doing nothing, when no process is parked on ``event``: it is
    running, parked on something else, or finished.
    """
    callbacks = event.callbacks
    if callbacks:
        for callback in callbacks:
            process = getattr(callback, "__self__", None)
            if isinstance(process, Process) and process._target is event:
                callbacks.remove(callback)
                sim = event.sim
                woken = Event(sim)
                woken._ok = True
                woken._value = value
                woken.callbacks.append(callback)
                process._target = woken  # an interrupt now detaches it from this
                sim._push(sim._now, _NORMAL, woken)
                return True
    return False


class AnyOf(Event):
    """Triggers as soon as one sub-event triggers (fails fast on failure);
    an empty set succeeds at once.  Made by :meth:`Simulator.any_of`.
    Its value maps each sub-event that has *occurred* (been processed) and
    succeeded to its value.  Once fired it leaves the callbacks of the
    sub-events that did not: a losing timer stays queued, holding nothing."""

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        # Field-by-field init, as Timeout.
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self._events = events = tuple(events)
        for event in events:
            if event.sim is not sim:
                raise SimulationError("all condition sub-events must share one simulator")
        if not events:
            self.succeed({})
        for event in events:
            if event.callbacks is None:
                self._check(event)  # already occurred: fire now, register on no more
                return
            event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return  # a sub-event listed twice calls twice
        check = self._check
        value = {}
        for sub in self._events:
            callbacks = sub.callbacks
            if callbacks is None:
                if sub._ok:
                    value[sub] = sub._value
            elif check in callbacks:  # a sub-event after an already-processed one has none
                callbacks.remove(check)
        if event._ok:
            self.succeed(value)
        else:
            event._defused = True
            self.fail(event._value)
