"""Source operators: they originate streams instead of transforming them.

``gen_array()`` is the workload generator of every experiment in the paper:
"gen_array() generates the finite stream of 100 arrays of size 3MB each".
``iota()`` generates integer ranges, and ``receiver()`` pulls from a named
external source registered with the engine (the paper's radix2 example
reads "a stream of 1D arrays of signal data" from a receiver).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable

from repro.engine.objects import SyntheticArray
from repro.engine.operators.base import Operator
from repro.util.errors import QueryExecutionError


class GenerateArrays(Operator):
    """``gen_array(nbytes, count)``: a stream of numeric arrays.

    Arrays are represented synthetically (size + sequence number); the
    generation cost models filling the array in memory.  ``count = -1``
    generates an unbounded stream — a true continuous query, terminated
    only by user intervention (paper section 2.2).
    """

    name = "gen_array"
    arity = (0, 0)

    UNBOUNDED = -1

    def __init__(self, ctx, inputs, output, nbytes: int, count: int):
        super().__init__(ctx, inputs, output)
        if nbytes < 1 or count < self.UNBOUNDED:
            raise QueryExecutionError(
                f"gen_array needs nbytes >= 1 and count >= 0 (or -1 for an "
                f"unbounded stream), got {nbytes}, {count}"
            )
        self.nbytes = int(nbytes)
        self.count = int(count)

    def run(self):
        cost_per_array = (
            self.ctx.costs.per_object_overhead
            + self.nbytes / self.ctx.costs.generate_rate
        )
        sequence = 0
        while self.count == self.UNBOUNDED or sequence < self.count:
            yield from self.ctx.charge_cpu(cost_per_array)
            yield from self.emit(SyntheticArray(nbytes=self.nbytes, sequence=sequence))
            sequence += 1
        yield from self.finish()


class Constant(Operator):
    """``constant(v)``: a stream of exactly one object (a lifted scalar)."""

    name = "constant"
    arity = (0, 0)

    def __init__(self, ctx, inputs, output, value):
        super().__init__(ctx, inputs, output)
        self.value = value

    def run(self):
        yield from self.ctx.charge_cpu(self.ctx.costs.per_object_overhead)
        yield from self.emit(self.value)
        yield from self.finish()


class Iota(Operator):
    """``iota(n, m)``: the integers n..m as a finite stream."""

    name = "iota"
    arity = (0, 0)

    def __init__(self, ctx, inputs, output, low: int, high: int):
        super().__init__(ctx, inputs, output)
        self.low = int(low)
        self.high = int(high)

    def run(self):
        for value in range(self.low, self.high + 1):
            yield from self.ctx.charge_cpu(self.ctx.costs.per_object_overhead)
            yield from self.emit(value)
        yield from self.finish()


class ExternalReceiver(Operator):
    """``receiver(name)``: a stream from a registered external source.

    The source registry maps names to zero-argument factories, letting
    applications (and tests) feed real data — e.g. numpy signal arrays for
    the radix2 FFT example — into queries.  A factory returns a fresh
    iterator over data that already exists, so every deployment of a
    query replays the same inputs; operators must not mutate them.
    """

    name = "receiver"
    arity = (0, 0)

    #: Process-wide registry of named external sources.
    _registry: Dict[str, Callable[[], Iterable[Any]]] = {}

    def __init__(self, ctx, inputs, output, source_name: str):
        super().__init__(ctx, inputs, output)
        if source_name not in self._registry:
            raise QueryExecutionError(
                f"no external source {source_name!r} registered; "
                f"known sources: {sorted(self._registry)}"
            )
        self.source_name = source_name

    @classmethod
    def register(cls, name: str, factory: Callable[[], Iterable[Any]]) -> None:
        """Register (or replace) a named external source."""
        cls._registry[name] = factory

    @classmethod
    def unregister(cls, name: str) -> None:
        """Remove a named external source if present."""
        cls._registry.pop(name, None)

    def run(self):
        for obj in self._registry[self.source_name]():
            yield from self.ctx.charge_cpu(self.ctx.costs.per_object_overhead)
            yield from self.emit(obj)
        yield from self.finish()
