"""Shared-resource primitives for the simulation kernel.

Two primitives cover everything the network and engine models need:

* :class:`Resource` — a capacity-limited device (a torus link, an I/O node
  NIC, a communication co-processor).  Processes ``request()`` a slot, hold
  it for however long the modelled operation takes, then ``release()`` it.
  Waiters are served FIFO, which makes contention deterministic.

* :class:`Store` — a bounded FIFO queue of items (the inbox of a running
  process, an operator's output).  ``put()`` blocks when the store is full,
  ``get()`` blocks when it is empty, giving natural back-pressure / flow
  control between producer and consumer processes.  Its :class:`TokenPool`
  subclass is the same queue of ``None`` tokens kept as a count (the double
  buffers of the MPI drivers, a stream's flow-control window).

Every queue here is a ``list``: production stores hold a handful of items
and waiter queues rarely more than one waiter, and an empty ``list`` is 56
bytes where a double-ended queue is 760.  ``pop(0)`` is O(len), so a
``Store`` holding thousands of items is a bad fit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from repro.sim.events import _NORMAL, _PENDING, Event
from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.instrument import _ResourceInstruments, _StoreInstruments
    from repro.sim.core import Simulator


class Request(Event):
    """Pending acquisition of one :class:`Resource` slot.

    Usable as a context manager so the slot is always released::

        with resource.request() as req:
            yield req
            yield sim.timeout(cost)

    A grant's value is ``None``, not the request: a request that held
    itself would be a reference cycle, freed only by the cyclic collector.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Field-by-field init (no super() chain): requests are created for
        # every link/co-processor acquisition on the transfer hot path.
        self.sim = resource.sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a request that has not been granted yet."""
        self.resource._withdraw(self)


class StorePut(Event):
    """Pending insertion into a :class:`Store`, carrying the item to add."""

    __slots__ = ("item",)

    def __init__(self, sim: "Simulator", item: Any) -> None:
        # Field-by-field init (no super() chain): Store.put is on the
        # per-buffer hot path of every driver transfer.
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self.item = item


#: The waiter queue of a store or resource that has no waiter (most never
#: do): the first waiter swaps in a real list, and a resource queue or a
#: store's getter queue that drains swaps the sentinel back (the putter
#: queues keep their list).
_NO_WAITERS: Any = ()


class Resource:
    """A device with ``capacity`` identical slots and a FIFO wait queue."""

    __slots__ = ("sim", "capacity", "name", "_users", "_waiting", "_token", "_bound")

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users: List[Request] = []
        self._waiting: List[Request] = _NO_WAITERS
        # What every synchronous grant returns if only one slot exists.
        self._token: Optional[Request] = None
        # Metric instruments, parked here by the obs hub's first hook.
        self._bound: Optional["_ResourceInstruments"] = None

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Ask for a slot; the returned event triggers when it is granted
        (already processed if granted at a quiescent instant, ``sim._inst``)."""
        sim = self.sim
        users = self._users
        if len(users) < self.capacity:
            inst = sim._inst
            if inst[1][-1] is None and inst[0][-1] is None:
                req = self._token or self._granted()
            else:
                req = Request(self)
                # Inlined req.succeed(): grant at the current time.
                req._ok = True
                req._value = None
                sim._push(sim._now, _NORMAL, req)
            users.append(req)
            if sim.obs.enabled:
                sim.obs.on_resource_acquire(self, req)
        else:
            req = Request(self)
            if self._waiting is _NO_WAITERS:
                self._waiting = []
            self._waiting.append(req)
            if sim.obs.enabled:
                sim.obs.on_resource_wait(self)
        return req

    def _granted(self) -> Request:
        """A processed request; shared from then on if only one can be held."""
        req = Request(self)
        req.callbacks = None
        req._ok = True
        req._value = None
        if self.capacity == 1:
            self._token = req
        return req

    def release(self, request: Request) -> None:
        """Return a slot; grants it to the longest-waiting request, if any.

        Releasing a request that was never granted simply withdraws it, so
        the ``with resource.request()`` idiom is safe even when a process is
        interrupted while waiting.
        """
        try:
            self._users.remove(request)
        except ValueError:
            self._withdraw(request)
            return
        sim = self.sim
        if sim.obs.enabled:
            sim.obs.on_resource_release(self, request)
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.pop(0)
            if not self._waiting:
                self._waiting = _NO_WAITERS  # drained: the sentinel again
            self._users.append(nxt)
            # Inlined nxt.succeed(): hand the slot to the longest waiter.
            nxt._ok = True
            nxt._value = None
            sim._push(sim._now, _NORMAL, nxt)
            if sim.obs.enabled:
                sim.obs.on_resource_acquire(self, nxt)

    def _withdraw(self, request: Request) -> None:
        if request not in self._waiting:
            return
        self._waiting.remove(request)
        if not self._waiting:
            self._waiting = _NO_WAITERS
        if self.sim.obs.enabled:
            self.sim.obs.on_resource_withdraw(self)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<Resource{label} {self.count}/{self.capacity} used,"
            f" {self.queue_length} waiting>"
        )


class Store:
    """A bounded FIFO buffer of items shared between processes.

    Waiter queues live only while someone waits.  ``_getters`` and
    ``_putters`` start as the shared ``_NO_WAITERS`` sentinel; the first
    waiter swaps in a list, and once :meth:`_serve_getters` drains the
    getters they are the sentinel again.  A store whose query has ended
    therefore holds no empty waiter list for the collector to walk.
    """

    __slots__ = ("sim", "capacity", "name", "_items", "_putters", "_getters", "_bound")

    def __init__(self, sim: "Simulator", capacity: float = float("inf"), name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"store capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: List[Any] = []
        self._putters: List[StorePut] = _NO_WAITERS  # events carrying the item to add
        self._getters: List[Event] = _NO_WAITERS
        self._bound: Optional["_StoreInstruments"] = None  # see Resource._bound

    @property
    def size(self) -> int:
        """Number of items currently buffered."""
        return len(self._items)

    @property
    def pending_gets(self) -> int:
        """Get requests currently waiting for an item."""
        return len(self._getters)

    def put(self, item: Any) -> Event:
        """Add ``item``; the returned event triggers once there is room
        (already processed if there is at a quiescent instant, ``sim._inst``)."""
        sim = self.sim
        if len(self._items) < self.capacity and not self._putters:
            self._items.append(item)
            inst = sim._inst
            if inst[1][-1] is None and inst[0][-1] is None:
                event = sim._done
            else:
                event = StorePut(sim, item)
                # Inlined event.succeed(): room is available right now.
                event._ok = True
                event._value = None
                sim._push(sim._now, _NORMAL, event)
            if self._getters:
                self._serve_getters()
            if sim.obs.enabled:
                sim.obs.on_store_level(self, len(self._items))
        else:
            event = StorePut(sim, item)
            if self._putters is _NO_WAITERS:
                self._putters = []
            self._putters.append(event)
        return event

    def get(self) -> Event:
        """Remove the oldest item; the event's value is the item (handed
        over already processed at a quiescent instant, as for :meth:`put`)."""
        sim = self.sim
        event = Event(sim)
        items = self._items
        if items:
            # Inlined event.succeed(item): an item is available right now.
            event._ok = True
            event._value = items.pop(0)
            inst = sim._inst
            if inst[1][-1] is None and inst[0][-1] is None:
                event.callbacks = None
            else:
                sim._push(sim._now, _NORMAL, event)
            if self._putters:
                self._serve_putters()
            if sim.obs.enabled:
                sim.obs.on_store_level(self, len(items))
        else:
            if self._getters is _NO_WAITERS:
                self._getters = []
            self._getters.append(event)
        return event

    def _serve_getters(self) -> None:
        getters, items = self._getters, self._items
        served = False
        while getters and items:
            getters.pop(0).succeed(items.pop(0))
            served = True
        if not getters:
            self._getters = _NO_WAITERS
        if served and self.sim.obs.enabled:
            self.sim.obs.on_store_level(self, len(items))

    def _serve_putters(self) -> None:
        served = False
        while self._putters and len(self._items) < self.capacity:
            putter = self._putters.pop(0)
            self._items.append(putter.item)
            putter.succeed()
            self._serve_getters()
            served = True
        if served and self.sim.obs.enabled:
            self.sim.obs.on_store_level(self, len(self._items))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {self.size} items>"


class TokenPool(Store):
    """A :class:`Store` of ``None`` tokens that keeps only their count.

    Receive slots, send buffers and flow-control windows hold nothing but
    how many are free, so a pool keeps an ``int`` level where a store keeps
    its item list: the same events at the same instants, the same
    ``on_store_level`` calls, and a ``get`` always hands over ``None``.
    ``stock`` tokens are in the pool from the start — a pool born full,
    where ``stock`` ``put(None)`` calls outside a dispatch would each queue
    an event nobody waits on.  The waiter queues are the store's, so waiter
    introspection reads a pool like any store.
    """

    __slots__ = ("_level",)

    def __init__(self, sim: "Simulator", capacity: int, name: str = "", stock: int = 0) -> None:
        super().__init__(sim, capacity, name)
        if not 0 <= stock <= capacity:
            raise SimulationError(f"token pool stock {stock} is outside [0, {capacity}]")
        del self._items  # the count below is the pool's only container
        self._level = stock
        if sim.obs.enabled:
            for level in range(1, stock + 1):  # token by token: the series sees each step
                sim.obs.on_store_level(self, level)

    @property
    def size(self) -> int:
        """Number of tokens currently free."""
        return self._level

    def put(self, item: Any) -> Event:
        """Return one token (``item`` is not kept); as :meth:`Store.put`."""
        sim = self.sim
        if self._level < self.capacity and not self._putters:
            self._level += 1
            inst = sim._inst
            if inst[1][-1] is None and inst[0][-1] is None:
                event = sim._done
            else:
                event = StorePut(sim, None)
                # Inlined event.succeed(): room is available right now.
                event._ok = True
                event._value = None
                sim._push(sim._now, _NORMAL, event)
            if self._getters:
                self._serve_getters()
            if sim.obs.enabled:
                sim.obs.on_store_level(self, self._level)
        else:
            event = StorePut(sim, None)
            if self._putters is _NO_WAITERS:
                self._putters = []
            self._putters.append(event)
        return event

    def get(self) -> Event:
        """Take one token; as :meth:`Store.get`, with ``None`` as the value."""
        sim = self.sim
        event = Event(sim)
        if self._level:
            self._level -= 1
            # Inlined event.succeed(None): a token is free right now.
            event._ok = True
            event._value = None
            inst = sim._inst
            if inst[1][-1] is None and inst[0][-1] is None:
                event.callbacks = None
            else:
                sim._push(sim._now, _NORMAL, event)
            if self._putters:
                self._serve_putters()
            if sim.obs.enabled:
                sim.obs.on_store_level(self, self._level)
        else:
            if self._getters is _NO_WAITERS:
                self._getters = []
            self._getters.append(event)
        return event

    def _serve_getters(self) -> None:
        getters = self._getters
        served = False
        while getters and self._level:
            self._level -= 1
            getters.pop(0).succeed(None)
            served = True
        if not getters:
            self._getters = _NO_WAITERS
        if served and self.sim.obs.enabled:
            self.sim.obs.on_store_level(self, self._level)

    def _serve_putters(self) -> None:
        served = False
        while self._putters and self._level < self.capacity:
            self._level += 1
            self._putters.pop(0).succeed()
            self._serve_getters()
            served = True
        if served and self.sim.obs.enabled:
            self.sim.obs.on_store_level(self, self._level)
