"""Selection operators over numeric streams.

The paper positions SCSQ as featuring "all common stream operators"
(section 4); these cover the selection family: threshold filters for
event detection (the LOFAR monitoring use case) and systematic sampling
for load shedding.
"""

from __future__ import annotations

from repro.engine.objects import END_OF_STREAM
from repro.engine.operators.base import Operator
from repro.util.errors import QueryExecutionError


class _ThresholdFilter(Operator):
    """Shared machinery of above()/below()."""

    arity = (1, 1)

    def __init__(self, ctx, inputs, output, threshold: float):
        super().__init__(ctx, inputs, output)
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
            raise QueryExecutionError(
                f"{self.name}() needs a numeric threshold, got {threshold!r}"
            )
        self.threshold = threshold

    def _keep(self, value: float) -> bool:
        raise NotImplementedError

    def run(self):
        while True:
            got = self.inputs[0].get()
            obj = got._value if got.callbacks is None else (yield got)
            if obj is END_OF_STREAM:
                break
            self.objects_in += 1
            if isinstance(obj, bool) or not isinstance(obj, (int, float)):
                raise QueryExecutionError(
                    f"{self.name}() filters numeric streams, got {obj!r}"
                )
            yield from self.ctx.charge_cpu(self.ctx.costs.per_object_overhead)
            if self._keep(obj):
                yield from self.emit(obj)
        yield from self.finish()


class Above(_ThresholdFilter):
    """``above(s, x)``: the elements of s strictly greater than x."""

    name = "above"

    def _keep(self, value):
        return value > self.threshold


class Below(_ThresholdFilter):
    """``below(s, x)``: the elements of s strictly less than x."""

    name = "below"

    def _keep(self, value):
        return value < self.threshold


class Sample(Operator):
    """``sample(s, k)``: every k-th element of s (systematic load shedding)."""

    name = "sample"
    arity = (1, 1)

    def __init__(self, ctx, inputs, output, every: int):
        super().__init__(ctx, inputs, output)
        if isinstance(every, bool) or not isinstance(every, int) or every < 1:
            raise QueryExecutionError(
                f"sample() needs an integer period >= 1, got {every!r}"
            )
        self.every = every

    def run(self):
        while True:
            got = self.inputs[0].get()
            obj = got._value if got.callbacks is None else (yield got)
            if obj is END_OF_STREAM:
                break
            yield from self.ctx.charge_cpu(self.ctx.costs.per_object_overhead)
            if self.objects_in % self.every == 0:
                yield from self.emit(obj)
            self.objects_in += 1
        yield from self.finish()
