"""Query control: stopping continuous queries.

"The execution of CQs may be stopped either by explicit user intervention
or by a stop condition in the query that makes the stream finite.  When a
CQ is stopped, its RPs are terminated.  RPs regularly exchange control
messages, which are used to regulate the stream flow between them and to
terminate execution upon a stop condition." (paper section 2.2)

Flow regulation is carried by the bounded stores and window tokens
(back-pressure); this module provides the *termination* path: a
:class:`StopToken` the client manager arms, which interrupts every running
process of the query at a simulated deadline or on demand.  Interrupting a
process releases any resource it holds (the drivers' ``with`` requests),
so a stopped query leaves the simulated hardware clean.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.sim import Interrupt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.rp import RunningProcess
    from repro.sim.core import Simulator
    from repro.sim.events import Process


#: Simulated latency of one inter-RP control message (stop-condition
#: cancellation, subscriber removal).  Small against any data transfer.
CONTROL_MESSAGE_LATENCY = 100e-6


class StopToken:
    """A handle that terminates a running continuous query."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._rps: List["RunningProcess"] = []
        self.stopped = False
        #: Triggered at the moment the query is stopped; the client manager
        #: races this against normal completion.
        self.event = sim.event()
        self._watchdog: Optional["Process"] = None

    def attach(self, rps: Iterable["RunningProcess"]) -> None:
        """Register the running processes this token controls."""
        self._rps.extend(rps)

    def stop(self) -> None:
        """Terminate every attached RP at the current simulated time.

        Idempotent; interrupting each live process mirrors the control
        message that "terminates execution upon a stop condition".
        """
        if self.stopped:
            return
        self.stopped = True
        for rp in self._rps:
            rp.terminate()
        self.event.succeed()

    def stop_at(self, deadline: float) -> None:
        """Arm a watchdog that stops the query at simulated ``deadline``."""

        def watchdog():
            remaining = deadline - self.sim.now
            try:
                if remaining > 0:
                    yield self.sim.timeout(remaining)
            except Interrupt:
                return  # query completed first; stand down
            self.stop()

        self._watchdog = self.sim.process(watchdog(), name="stop-watchdog")

    def cancel(self) -> None:
        """Stand the watchdog down (the query completed on its own)."""
        if self._watchdog is not None and self._watchdog.is_alive:
            self._watchdog.interrupt("query completed")
