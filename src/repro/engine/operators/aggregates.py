"""Aggregate operators: count, sum, and friends.

``count()`` is how every measurement query in the paper sinks its stream —
"b counts the total number of arrays in the finite stream extracted from a.
... Since only one number is transmitted from b to the client manager, the
total time measured is dominated by the time for streaming the data."
``sum()`` combines partial counts in Queries 3-6.
"""

from __future__ import annotations

from typing import Any

from repro.engine.objects import END_OF_STREAM
from repro.engine.operators.base import Operator
from repro.util.errors import QueryExecutionError


class _FoldAggregate(Operator):
    """Shared machinery: fold the whole input stream into one value."""

    arity = (1, 1)

    def _initial(self) -> Any:
        raise NotImplementedError

    def _step(self, acc: Any, obj: Any) -> Any:
        raise NotImplementedError

    def _final(self, acc: Any, n: int) -> Any:
        return acc

    def run(self):
        acc = self._initial()
        while True:
            got = self.inputs[0].get()
            obj = got._value if got.callbacks is None else (yield got)
            if obj is END_OF_STREAM:
                break
            yield from self.ctx.charge_cpu(self.ctx.costs.per_object_overhead)
            acc = self._step(acc, obj)
            self.objects_in += 1
        yield from self.emit(self._final(acc, self.objects_in))
        yield from self.finish()


class Count(_FoldAggregate):
    """``count(bag)``: the number of elements in the stream."""

    name = "count"

    def _initial(self):
        return 0

    def _step(self, acc, obj):
        return acc + 1


def _numeric(obj: Any, op_name: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise QueryExecutionError(f"{op_name}() needs numeric input, got {obj!r}")
    return obj


class Sum(_FoldAggregate):
    """``sum(bag)``: the sum of a numeric stream."""

    name = "sum"

    def _initial(self):
        return 0

    def _step(self, acc, obj):
        return acc + _numeric(obj, "sum")


class Avg(_FoldAggregate):
    """``avg(bag)``: the arithmetic mean of a numeric stream (None if empty)."""

    name = "avg"

    def _initial(self):
        return 0.0

    def _step(self, acc, obj):
        return acc + _numeric(obj, "avg")

    def _final(self, acc, n):
        return acc / n if n else None


class MaxAgg(_FoldAggregate):
    """``maxagg(bag)``: the maximum of a numeric stream (None if empty)."""

    name = "maxagg"

    def _initial(self):
        return None

    def _step(self, acc, obj):
        value = _numeric(obj, "maxagg")
        return value if acc is None else max(acc, value)


class MinAgg(_FoldAggregate):
    """``minagg(bag)``: the minimum of a numeric stream (None if empty)."""

    name = "minagg"

    def _initial(self):
        return None

    def _step(self, acc, obj):
        value = _numeric(obj, "minagg")
        return value if acc is None else min(acc, value)
