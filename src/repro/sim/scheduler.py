"""Pluggable event schedulers for the DES kernel.

The kernel's dispatch order is the total order ``(when, rank, seq)``: time
first, urgent before normal at the same instant, insertion order last.  A
scheduler is any object that preserves exactly that order; the simulator
only ever talks to it through four operations:

* ``push(when, rank, event)`` — enqueue a triggered event,
* ``pop()`` — dequeue the next ``(when, event)`` pair (``None`` if empty),
* ``next_time()`` — time of the next event (``inf`` if empty),
* ``len()`` / truthiness — pending-event count.

Three backends are registered:

:class:`HeapScheduler`
    The classic binary heap of ``(when, rank, seq, event)`` tuples.  Cost is
    ``O(log n)`` per operation regardless of the schedule's shape.  Kept as
    the reference backend: the property suite in
    ``tests/sim/test_scheduler.py`` proves the calendar queue pops in
    exactly this order.  It is not ``batched``, so the simulator drives it
    through the generic :meth:`~repro.sim.core.Simulator.step` loop.

:class:`CalendarQueue`
    A bucket queue keyed by timestamp: a dict mapping each *distinct* time
    to a pair of FIFO lists (urgent, normal) plus a small heap of the
    distinct times themselves.  The kernel's workload is dominated by
    same-timestamp bursts — every store handoff, resource grant, and
    process completion schedules at ``sim.now`` — so the number of distinct
    times is orders of magnitude smaller than the number of events.  Push
    is ``O(1)`` amortized (dict hit + list append), pop is ``O(1)`` off the
    current bucket, and the heap is touched once per distinct timestamp
    instead of once per event.  ``rank`` doubles as the bucket list index
    (``_URGENT == 0``, ``_NORMAL == 1``), and no per-event sequence number
    is needed at all: list append order *is* insertion order.

:class:`ShuffleScheduler`
    The chaos oracle: a :class:`CalendarQueue` that permutes only the
    same-``(when, rank)`` tie-break.

The calendar queue (shuffle included) is ``batched``: the simulator drains
it bucket-at-a-time in :meth:`repro.sim.core.Simulator._run_batched`,
re-checking the urgent list before every pop so urgent events scheduled
mid-drain still overtake pending normal events exactly as the heap order
demands.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.events import Event

_INF = float("inf")

# A *pending view* is what a drain loop publishes on ``sim._inst`` while it
# dispatches an event: a pair of sequences (urgent, normal) whose last slot
# is ``None`` exactly when no event of that rank is pending at the current
# instant.  A calendar bucket is one; other backends publish these constants.
_BUSY = ((0,), (0,))
_IDLE = ((None,), (None,))


class EventScheduler:
    """Interface every kernel scheduler implements.

    ``batched`` marks schedulers whose internals the drain loop may walk
    bucket-at-a-time; the generic loop only uses the four methods below.
    """

    __slots__ = ()

    batched = False

    def _pending_view(self, when: float) -> Any:
        """The pending view of instant ``when``, asked right after a pop
        (later pushes reach it through ``Simulator._push_tracked``)."""
        return _BUSY if self.next_time() == when else _IDLE

    def push(self, when: float, rank: int, event: "Event") -> None:
        """Enqueue ``event`` at ``when`` with tie-break ``rank``."""
        raise NotImplementedError

    def pop(self) -> Optional[Tuple[float, "Event"]]:
        """Dequeue the next event in ``(when, rank, seq)`` order."""
        raise NotImplementedError

    def next_time(self) -> float:
        """Time of the next event, or ``inf`` when empty."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return self.next_time() != _INF


class HeapScheduler(EventScheduler):
    """Reference backend: binary heap of ``(when, rank, seq, event)``."""

    __slots__ = ("_heap", "_next_seq")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, "Event"]] = []
        self._next_seq = 0

    def push(self, when: float, rank: int, event: "Event") -> None:
        seq = self._next_seq
        self._next_seq = seq + 1
        heappush(self._heap, (when, rank, seq, event))

    def pop(self) -> Optional[Tuple[float, "Event"]]:
        if not self._heap:
            return None
        when, _rank, _seq, event = heappop(self._heap)
        return when, event

    def next_time(self) -> float:
        return self._heap[0][0] if self._heap else _INF

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class CalendarQueue(EventScheduler):
    """Bucket queue over distinct timestamps, tuned for same-time bursts.

    Bucket layout: ``_buckets[when]`` is a 4-slot list
    ``[urgent_events, normal_events, urgent_cursor, normal_cursor]``.
    Events are never removed from a bucket's lists; the cursors advance
    over them and the whole bucket is dropped once both lists are
    exhausted.  Because ``_URGENT == 0`` and ``_NORMAL == 1``, the rank a
    caller passes to :meth:`push` indexes the bucket directly.  Each list
    starts with a consumed ``None`` slot (cursors start at 1), so the bucket
    is its own pending view: nothing pending iff both lists end in ``None``.
    """

    __slots__ = ("_buckets", "_times")

    batched = True

    def __init__(self) -> None:
        # when -> [urgent list, normal list, urgent cursor, normal cursor]
        self._buckets: Dict[float, list] = {}
        self._times: List[float] = []  # heap of distinct pending times

    def push(self, when: float, rank: int, event: "Event") -> None:
        # A membership test, not a caught KeyError: a new instant is opened
        # about every other push (a buffer's timeouts each land at a time of
        # their own), and raising costs more than the second lookup a hit pays.
        buckets = self._buckets
        if when in buckets:
            buckets[when][rank].append(event)
        else:
            bucket = buckets[when] = [[None], [None], 1, 1]
            bucket[rank].append(event)
            heappush(self._times, when)

    def _pending_view(self, when: float) -> list:
        return self._buckets[when]

    def pop(self) -> Optional[Tuple[float, "Event"]]:
        times = self._times
        buckets = self._buckets
        while times:
            when = times[0]
            bucket = buckets[when]
            cursor = bucket[2]
            urgent = bucket[0]
            if cursor < len(urgent):
                event = urgent[cursor]
                urgent[cursor] = None  # free the slot as it dispatches
                bucket[2] = cursor + 1
                return when, event
            cursor = bucket[3]
            normal = bucket[1]
            if cursor < len(normal):
                event = normal[cursor]
                normal[cursor] = None
                bucket[3] = cursor + 1
                return when, event
            del buckets[when]
            heappop(times)
        return None

    def next_time(self) -> float:
        times = self._times
        buckets = self._buckets
        while times:
            when = times[0]
            bucket = buckets[when]
            if bucket[2] < len(bucket[0]) or bucket[3] < len(bucket[1]):
                return when
            del buckets[when]
            heappop(times)
        return _INF

    def __len__(self) -> int:
        return sum(
            len(b[0]) - b[2] + len(b[1]) - b[3] for b in self._buckets.values()
        )

    def __bool__(self) -> bool:
        return self.next_time() != _INF


class ShuffleScheduler(CalendarQueue):
    """Chaos backend: the calendar queue with a seeded same-instant tie-break.

    The only freedom the ``(when, rank, seq)`` contract leaves is the
    ``seq`` tie-break among events sharing one ``(when, rank)`` list.  Only
    :meth:`push` is overridden: an event goes to a seeded random index among
    the still-pending events of its list, so replaying a harness under a few
    seeds is a schedule-race detector (``SAN101``,
    :mod:`repro.analysis.sanitize`) over the loop production runs,
    ``Simulator._run_batched``.  Consumed slots are ``None`` and pending ones
    are not, so the pending run is the tail after the last ``None``
    (``O(pending)``, fine for an oracle).  Urgent still overtakes normal, and
    the order is a pure function of the seed and the push/pop interleaving.
    Selected by ``scheduler="shuffle"``, an instance, or
    :func:`scheduler_override`.
    """

    __slots__ = ("seed", "_rng")

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = seed
        self._rng = random.Random(seed)

    def push(self, when: float, rank: int, event: "Event") -> None:
        bucket = self._buckets.get(when)
        if bucket is None:
            super().push(when, rank, event)
            return
        events = bucket[rank]
        start = len(events)
        while events[start - 1] is not None:  # slot 0 is always consumed
            start -= 1
        events.insert(self._rng.randint(start, len(events)), event)


#: Registry of scheduler backends selectable by name.
SCHEDULERS: Dict[str, Callable[[], EventScheduler]] = {
    "heap": HeapScheduler,
    "calendar": CalendarQueue,
    "shuffle": ShuffleScheduler,
}

#: Backend a bare ``Simulator()`` gets.
DEFAULT_SCHEDULER = "calendar"

#: When set, :func:`make_scheduler` resolves a ``None`` spec through this
#: factory instead of :data:`DEFAULT_SCHEDULER`.  Installed (scoped) by
#: :func:`scheduler_override`; the chaos harness uses it to put a seeded
#: :class:`ShuffleScheduler` under every simulator a replayed harness
#: builds, without the harness knowing.
_DEFAULT_OVERRIDE: Optional[Callable[[], EventScheduler]] = None


@contextmanager
def scheduler_override(
    factory: Callable[[], EventScheduler],
) -> Iterator[None]:
    """Scope within which default-configured simulators use ``factory``.

    Only ``scheduler=None`` construction is affected; explicit names and
    instances keep their meaning.  Overrides do not nest — re-entering
    replaces the outer factory for the inner scope and restores it after.
    """
    global _DEFAULT_OVERRIDE
    previous = _DEFAULT_OVERRIDE
    _DEFAULT_OVERRIDE = factory
    try:
        yield
    finally:
        _DEFAULT_OVERRIDE = previous


def make_scheduler(
    spec: Union[str, EventScheduler, None] = None,
) -> EventScheduler:
    """Resolve a scheduler spec: a name, a ready instance, or ``None``.

    ``None`` selects the :func:`scheduler_override` factory when one is
    installed, else :data:`DEFAULT_SCHEDULER`; an :class:`EventScheduler`
    instance is returned as-is (it must be empty and unshared).
    """
    if spec is None:
        if _DEFAULT_OVERRIDE is not None:
            return _DEFAULT_OVERRIDE()
        spec = DEFAULT_SCHEDULER
    if isinstance(spec, EventScheduler):
        return spec
    try:
        factory = SCHEDULERS[spec]
    except (KeyError, TypeError):
        raise SimulationError(
            f"unknown scheduler {spec!r} (expected one of "
            f"{sorted(SCHEDULERS)} or an EventScheduler instance)"
        ) from None
    return factory()
