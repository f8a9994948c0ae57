"""Execution context shared by the operators and drivers of one RP.

Bundles the node an RP runs on, its CPU resource, the cost model, and the
query's execution settings, and provides the ``charge_cpu`` primitive that
turns modelled CPU costs into contended simulated time.
"""

from __future__ import annotations

from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import Environment
from repro.hardware.node import Node
from repro.sim import Timeout


class ExecutionContext:
    """Where and under which cost model a piece of engine work runs."""

    def __init__(self, env: Environment, node: Node, settings: ExecutionSettings):
        self.env = env
        self.node = node
        self.settings = settings
        # Fixed for the environment's life: read once per buffer or object.
        self.sim = env.sim
        self.costs = env.params.cpu
        self.cpu = env.cpu(node)
        self._scale = env.cpu_time_scale(node)
        self.cpu_busy_time = 0.0
        # Every process of the RP, its operators' sub-processes included:
        # the RP terminates, joins and counts them all.
        self.processes: list = []

    def charge_cpu(self, baseline_seconds: float):
        """Occupy one CPU of this node for a (scaled, jittered) cost.

        ``baseline_seconds`` is expressed for the 700 MHz BlueGene CPU; it
        is scaled by the node's clock ratio and the run's jitter.  Yields
        from inside an RP process.
        """
        cost = self.env.jitter.apply(baseline_seconds * self._scale)
        cpu = self.cpu
        req = cpu.request()
        try:
            if req.callbacks is not None:  # else granted synchronously
                yield req
            yield Timeout(self.sim, cost)
        finally:
            cpu.release(req)
        self.cpu_busy_time += cost

    def spawn(self, generator, name: str):
        """Start a process owned by this context's RP."""
        process = self.sim.process(generator, name=name)
        self.processes.append(process)
        return process

    def marshal_cost(self, nbytes: int) -> float:
        """Baseline CPU seconds to marshal an ``nbytes`` buffer here."""
        cost = self.costs.marshal_time(nbytes)
        if self.settings.double_buffering:
            cost += self.costs.double_buffer_sync_overhead
        return cost

    def demarshal_cost(self, nbytes: int) -> float:
        """Baseline CPU seconds to de-marshal an ``nbytes`` buffer here."""
        cost = self.costs.demarshal_time(nbytes)
        if self.settings.double_buffering:
            cost += self.costs.double_buffer_sync_overhead
        return cost
