"""Receive-side buffering with explicit slot ownership.

The MPI receiver driver "contains double buffers so that one buffer can be
processed while the other one is read or written" (paper section 2.3) — and
the Figure 6/8 experiments compare that against single buffering.  The
difference is *who may touch the receive buffer when*:

* **single buffering** — one receive buffer: while the CPU de-marshals it,
  the communication co-processor cannot deposit the next buffer and stalls
  (stalling, in turn, back-pressures the torus);
* **double buffering** — two buffers: the co-processor fills one while the
  CPU drains the other.

:class:`Inbox` models this with a token pool of ``slots`` receive buffers.
The network deposits via :meth:`put` (acquiring a free slot, blocking while
none is free) and the receiver driver returns the slot with
:meth:`release` once de-marshaling finishes.

Flow tracing (:mod:`repro.obs.flow`) brackets the inbox rather than hooking
it: the delivering network model records a hop when its ``deliver.put``
completes (slot-wait shows up there as queue time), and the receiver driver
records the ``receiver.inbox`` hop when it picks the buffer up — so the
dwell between deposit and pick-up is attributed to the inbox interval
without the inbox itself ever touching ``sim.obs``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.message import WireBuffer
from repro.sim import Store, TokenPool
from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Simulator
    from repro.sim.events import Event


class Inbox:
    """A pool of ``slots`` receive buffers between a channel and a driver."""

    def __init__(self, sim: "Simulator", slots: int, name: str = ""):
        if slots < 1:
            raise SimulationError(f"an inbox needs at least one slot, got {slots}")
        self.sim = sim
        self.name = name
        self._tokens = TokenPool(sim, capacity=slots, name=f"{name}.tokens", stock=slots)
        self._items = Store(sim, name=f"{name}.items")
        self._closed = False

    def put(self, buffer: WireBuffer) -> "Event":
        """Deposit a buffer; the event triggers once a slot was free.

        No process: a free slot is taken and the buffer deposited here (the
        event is the store's own, possibly already processed); otherwise
        the slot's grant deposits first and resumes the depositor second —
        either way before the receiver, woken by the deposit, runs.
        """
        if self._closed:
            return self.sim._done
        slot = self._tokens.get()
        if slot._ok:  # taken already, even if the event itself is still queued
            return self._items.put(buffer)
        # Granted by close(), the slot is moot: the receiver died meanwhile.
        slot.callbacks.append(lambda _slot: self._closed or self._items.put(buffer))
        return slot

    def close(self) -> None:
        """Discard deposits after the receiving driver has been terminated.

        A network model delivering into a dead query would otherwise block
        forever on a slot no driver will ever release — and some models
        (torus/tree receive processing) hold the destination co-processor
        across the deposit, wedging the *node* for every later deployment.
        Closing wakes every blocked deposit and drops all future ones.
        """
        if self._closed:
            return
        self._closed = True
        while self._tokens.pending_gets:
            self._tokens.put(None)

    def get(self) -> "Event":
        """Take the oldest deposited buffer (the slot stays owned)."""
        return self._items.get()

    def release(self) -> "Event":
        """Return one slot to the pool after de-marshaling completes."""
        return self._tokens.put(None)

    @property
    def depth(self) -> int:
        """Buffers currently deposited and not yet taken by the driver."""
        return self._items.size

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran (deposits are dropped from then on)."""
        return self._closed

    @property
    def pending_gets(self) -> int:
        """Driver gets currently blocked waiting for a deposit."""
        return self._items.pending_gets

    def kernel_stores(self) -> "list[Store]":
        """The kernel stores backing this inbox (waiter introspection)."""
        return [self._tokens, self._items]
