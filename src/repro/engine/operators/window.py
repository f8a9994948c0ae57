"""Window aggregation operators.

The paper notes (section 4) that "SCSQ features all common stream
operators including window aggregation".  These operators provide
count-based sliding windows over numeric streams: every ``slide`` input
objects, the aggregate of the last ``size`` objects is emitted.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Sequence

from repro.engine.objects import END_OF_STREAM
from repro.engine.operators.base import Operator
from repro.util.errors import QueryExecutionError


class WindowAggregate(Operator):
    """Sliding count-window aggregate over a numeric stream."""

    name = "window"
    arity = (1, 1)

    #: Supported aggregate functions.
    FUNCTIONS = {
        "sum": sum,
        "avg": lambda xs: sum(xs) / len(xs),
        "max": max,
        "min": min,
        "count": len,
    }

    def __init__(self, ctx, inputs, output, fn: str, size: int, slide: int = 1):
        super().__init__(ctx, inputs, output)
        if fn not in self.FUNCTIONS:
            raise QueryExecutionError(
                f"unknown window aggregate {fn!r}; supported: {sorted(self.FUNCTIONS)}"
            )
        if size < 1 or slide < 1:
            raise QueryExecutionError(
                f"window size and slide must be >= 1, got size={size} slide={slide}"
            )
        self.fn: Callable[[Sequence], object] = self.FUNCTIONS[fn]
        self.size = size
        self.slide = slide

    def run(self):
        window: Deque = deque(maxlen=self.size)
        since_emit = 0
        while True:
            got = self.inputs[0].get()
            obj = got._value if got.callbacks is None else (yield got)
            if obj is END_OF_STREAM:
                break
            self.objects_in += 1
            yield from self.ctx.charge_cpu(self.ctx.costs.per_object_overhead)
            window.append(obj)
            since_emit += 1
            if len(window) == self.size and since_emit >= self.slide:
                since_emit = 0
                yield from self.emit(self.fn(tuple(window)))
        yield from self.finish()
