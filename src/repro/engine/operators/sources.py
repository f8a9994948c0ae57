"""Source operators: they originate streams instead of transforming them.

``gen_array()`` is the workload generator of every experiment in the paper:
"gen_array() generates the finite stream of 100 arrays of size 3MB each".
``iota()`` generates integer ranges, and ``receiver()`` pulls from a named
external source in scope (the paper's radix2 example reads "a stream of 1D
arrays of signal data" from a receiver).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterable, Iterator, Mapping

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


#: The external sources in scope: name -> zero-argument factory.
_SOURCES: ContextVar[Mapping[str, Callable[[], Iterable[Any]]]] = ContextVar(
    "external_sources", default={}
)


@contextmanager
def external_sources(sources: Mapping[str, Callable[[], Iterable[Any]]]) -> Iterator[None]:
    """Put ``sources`` (name -> factory) in scope for the enclosed block.

    The one scoping rule of ``receiver(name)``: a deployment sees the names
    of every enclosing block, an inner name shadows an outer one, and the
    names leave scope when the block exits, however it exits.  The scope is
    a context variable, so two sessions in one process never see each
    other's sources.
    """
    token = _SOURCES.set({**_SOURCES.get(), **sources})
    try:
        yield
    finally:
        _SOURCES.reset(token)


class ExternalReceiver(Operator):
    """``receiver(name)``: a stream from an external source in scope.

    The factory is taken from the :func:`external_sources` scope when the
    operator is built, i.e. when its query deploys.  A factory returns a
    fresh iterator over data that already exists, so every deployment of
    a query replays the same inputs; operators must not mutate them.
    """

    name = "receiver"
    arity = (0, 0)

    def __init__(self, ctx, inputs, output, source_name: str):
        super().__init__(ctx, inputs, output)
        known = _SOURCES.get()
        if source_name not in known:
            raise QueryExecutionError(
                f"no external source {source_name!r} registered; "
                f"known sources: {sorted(known)}"
            )
        self.factory = known[source_name]

    def run(self):
        for obj in self.factory():
            yield from self.ctx.charge_cpu(self.ctx.costs.per_object_overhead)
            yield from self.emit(obj)
        yield from self.finish()
