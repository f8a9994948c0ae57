"""Discrete-event simulation kernel.

A small, self-contained process-interaction simulator in the style of SimPy:
:class:`Simulator` owns virtual time and the event queue; simulation
processes are Python generators yielding :class:`Event` objects; shared
devices are modelled with :class:`Resource`, bounded queues with
:class:`Store` and counted tokens with :class:`TokenPool`.

Everything else in the library — the torus network, the MPI/TCP drivers, the
running processes of the stream engine — executes on this kernel, so a whole
SCSQ deployment runs deterministically inside one OS process.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AnyOf",
    "wake",
    "Resource",
    "Request",
    "Store",
    "TokenPool",
    "EventScheduler",
    "HeapScheduler",
    "CalendarQueue",
    "ShuffleScheduler",
    "SCHEDULERS",
    "DEFAULT_SCHEDULER",
    "make_scheduler",
    "scheduler_override",
]

__getattr__ = lazy_exports(__name__, {
    "repro.sim.core": ("Simulator",),
    "repro.sim.events": ("AnyOf", "Event", "Interrupt", "Process", "Timeout", "wake"),
    "repro.sim.resources": ("Request", "Resource", "Store", "TokenPool"),
    "repro.sim.scheduler": (
        "DEFAULT_SCHEDULER", "SCHEDULERS", "CalendarQueue", "EventScheduler", "HeapScheduler",
        "ShuffleScheduler", "make_scheduler", "scheduler_override",
    ),
})
