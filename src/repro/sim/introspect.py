"""Waiter introspection over the simulation kernel's blocking primitives.

The liveness analyzer (``SAN301`` in :mod:`repro.analysis.sanitize`) needs
to answer, *after* the event queue has drained with work outstanding: which
processes are still alive, what is each one blocked on, and who could have
woken it?  The kernel itself keeps all of that state — ``Process._target``
is the awaited event, stores and resources hold their FIFO waiter queues —
but scattered across private attributes.  This module is the one sanctioned
reader of those attributes: it renders the blocked set as typed
:class:`WaitEdge` records without mutating anything.

Everything here is diagnostic-path code (it runs when a simulation is
already wedged), so clarity wins over cycle counts.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.sim.events import AnyOf, Detached, Event, Process, Timeout
from repro.sim.resources import Request, Store, StorePut

__all__ = ["WaitEdge", "waiters_of", "describe_event", "wait_edges"]


class WaitEdge:
    """One blocked process and a classification of what it waits for.

    Attributes:
        process: The blocked (alive, untriggered) process.
        target: The event it yielded and is parked on (``None`` for a
            process that is alive but not parked — mid-resume, which cannot
            happen on a drained queue).
        kind: Coarse wait class — ``"store-get"``, ``"store-put"``,
            ``"resource"``, ``"join"``, ``"timeout"``, ``"condition"`` or
            ``"event"``.
        detail: Human-readable rendering of the target (store/resource
            names, joined process names) for diagnostics.
        blockers: Processes that could plausibly wake this one (the joined
            process for a join; co-waiters are *not* blockers).
    """

    __slots__ = ("process", "target", "kind", "detail", "blockers")

    def __init__(
        self,
        process: Process,
        target: Optional[Event],
        kind: str,
        detail: str,
        blockers: List[Process],
    ) -> None:
        self.process = process
        self.target = target
        self.kind = kind
        self.detail = detail
        self.blockers = blockers

    def __repr__(self) -> str:
        return (
            f"<WaitEdge {self.process.name!r} --{self.kind}--> {self.detail}>"
        )


def waiters_of(event: Event) -> List[Process]:
    """The processes (and detached generators, which have no name) parked
    on ``event`` via their ``_resume`` callbacks."""
    processes: List[Process] = []
    for callback in event.callbacks or ():
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, (Process, Detached)):
            processes.append(owner)
    return processes


def describe_event(event: Event, stores: Iterable[Store] = ()) -> str:
    """A one-line human rendering of what waiting on ``event`` means."""
    if isinstance(event, Request):
        resource = event.resource
        name = resource.name or "resource"
        return (
            f"slot of {name!r} ({resource.count}/{resource.capacity} held, "
            f"{resource.queue_length} waiting)"
        )
    if isinstance(event, StorePut):
        for store in stores:
            if event in store._putters:
                name = store.name or "store"
                return f"room in {name!r} (full at {store.size} items)"
        return "room in a full store"
    if isinstance(event, Process):
        return f"join of process {event.name!r}"
    if isinstance(event, Timeout):
        return f"timeout of {event.delay!r}s"
    if isinstance(event, AnyOf):
        pending = [
            sub for sub in event._events if not sub.processed
        ]
        return f"condition over {len(event._events)} events ({len(pending)} pending)"
    for store in stores:
        if event in store._getters:
            name = store.name or "store"
            return f"item from {name!r} (empty, {store.pending_gets} getters)"
    return "bare event (a rendezvous nobody signalled)"


def _classify(event: Event, stores: Iterable[Store]) -> str:
    if isinstance(event, Request):
        return "resource"
    if isinstance(event, StorePut):
        return "store-put"
    if isinstance(event, Process):
        return "join"
    if isinstance(event, Timeout):
        return "timeout"
    if isinstance(event, AnyOf):
        return "condition"
    for store in stores:
        if event in store._getters:
            return "store-get"
    return "event"


def wait_edges(
    processes: Iterable[Process],
    stores: Iterable[Store] = (),
) -> List[WaitEdge]:
    """The wait-for edges of every alive process in ``processes``.

    ``stores`` widens the classification: a bare getter event is recognized
    as a ``store-get`` only when its store is listed (a wait on a resource
    classifies via its ``Request``).  Join edges carry the joined process as
    a blocker, so a chain of joins renders as a path through the returned
    edges.
    """
    store_list = list(stores)
    edges: List[WaitEdge] = []
    seen = set()
    for process in processes:
        if process.triggered or id(process) in seen:
            continue
        seen.add(id(process))
        target = process._target
        if target is None:
            edges.append(WaitEdge(process, None, "running", "not parked", []))
            continue
        kind = _classify(target, store_list)
        detail = describe_event(target, store_list)
        blockers: List[Process] = []
        if isinstance(target, Process) and not target.triggered:
            blockers.append(target)
        elif isinstance(target, AnyOf):
            blockers.extend(
                sub for sub in target._events
                if isinstance(sub, Process) and not sub.triggered
            )
        edges.append(WaitEdge(process, target, kind, detail, blockers))
    return edges
