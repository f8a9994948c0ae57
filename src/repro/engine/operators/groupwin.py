"""Keyed (grouped) window aggregation over tuple streams.

Linear-Road-style queries aggregate *per key* — per-vehicle average speed,
per-segment counts.  ``groupwin`` maintains one tumbling count-window per
key over tuple streams and emits ``(key, aggregate)`` pairs as windows
fill; remaining partial windows are flushed at end of stream.
"""

from __future__ import annotations

from typing import Dict, List

from repro.engine.objects import END_OF_STREAM
from repro.engine.operators.base import Operator
from repro.engine.operators.window import WindowAggregate
from repro.util.errors import QueryExecutionError


class GroupWindowAggregate(Operator):
    """``groupwin(s, fn, size, keyidx, validx)``: per-key tumbling windows."""

    name = "groupwin"
    arity = (1, 1)

    def __init__(self, ctx, inputs, output, fn: str, size: int,
                 key_index: int, value_index: int, flush_partial: bool = True):
        super().__init__(ctx, inputs, output)
        if fn not in WindowAggregate.FUNCTIONS:
            raise QueryExecutionError(
                f"unknown groupwin aggregate {fn!r}; supported: "
                f"{sorted(WindowAggregate.FUNCTIONS)}"
            )
        if size < 1:
            raise QueryExecutionError(f"groupwin size must be >= 1, got {size}")
        self.fn_name = fn
        self.fn = WindowAggregate.FUNCTIONS[fn]
        self.size = size
        self.key_index = key_index
        self.value_index = value_index
        self.flush_partial = flush_partial

    def _field(self, obj, index, what):
        try:
            return obj[index]
        except (TypeError, IndexError, KeyError):
            raise QueryExecutionError(
                f"groupwin() could not read {what} [{index}] of {obj!r}"
            ) from None

    def run(self):
        windows: Dict[object, List[float]] = {}
        order: List[object] = []  # first-seen key order, for determinism
        while True:
            got = self.inputs[0].get()
            obj = got._value if got.callbacks is None else (yield got)
            if obj is END_OF_STREAM:
                break
            self.objects_in += 1
            yield from self.ctx.charge_cpu(self.ctx.costs.per_object_overhead)
            key = self._field(obj, self.key_index, "the key")
            value = self._field(obj, self.value_index, "the value")
            if key not in windows:
                windows[key] = []
                order.append(key)
            bucket = windows[key]
            bucket.append(value)
            if len(bucket) == self.size:
                yield from self.emit((key, self.fn(tuple(bucket))))
                bucket.clear()
        if self.flush_partial:
            for key in order:
                bucket = windows[key]
                if bucket:
                    yield from self.emit((key, self.fn(tuple(bucket))))
        yield from self.finish()
