"""Per-object transform operators: generic map and the FFT helpers.

``odd(x)`` and ``even(x)`` "obtain odd and even elements from array x"
(paper section 2.4, the radix2 example).  They tag their outputs with role
and sequence so ``radixcombine()`` can pair partial results after the
merge, whose arrival order is nondeterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.engine.objects import END_OF_STREAM, TaggedObject, size_of
from repro.engine.operators.base import Operator
from repro.util.errors import QueryExecutionError

if TYPE_CHECKING:
    import numpy as np


class MapFunction(Operator):
    """Apply a Python function to every stream object.

    Attributes:
        fn: The per-object function.
        cost_fn: Optional function object -> baseline CPU seconds; defaults
            to the per-object overhead plus a memory-streaming term.
    """

    name = "map"
    arity = (1, 1)

    def __init__(self, ctx, inputs, output, fn: Callable[[Any], Any],
                 cost_fn: Optional[Callable[[Any], float]] = None):
        super().__init__(ctx, inputs, output)
        self.fn = fn
        self.cost_fn = cost_fn

    def _cost(self, obj: Any) -> float:
        if self.cost_fn is not None:
            return self.cost_fn(obj)
        return self.ctx.costs.per_object_overhead + size_of(obj) / self.ctx.costs.generate_rate

    def run(self):
        while True:
            obj = yield from self.next_object()
            if obj is END_OF_STREAM:
                break
            yield from self.ctx.charge_cpu(self._cost(obj))
            yield from self.emit(self.fn(obj))
        yield from self.finish()


def _as_array(obj: Any, op_name: str) -> np.ndarray:
    import numpy as np

    payload = obj.payload if isinstance(obj, TaggedObject) else obj
    if not isinstance(payload, np.ndarray):
        raise QueryExecutionError(f"{op_name}() needs numpy arrays, got {type(payload).__name__}")
    return payload


class _ParitySelect(Operator):
    """Shared machinery of odd()/even(): pick alternating array elements."""

    arity = (1, 1)
    _offset = 0  # 0 = even indices, 1 = odd indices
    _role = ""

    def run(self):
        sequence = 0
        while True:
            obj = yield from self.next_object()
            if obj is END_OF_STREAM:
                break
            array = _as_array(obj, self.name)
            cost = self.ctx.costs.per_object_overhead + array.nbytes / self.ctx.costs.generate_rate
            yield from self.ctx.charge_cpu(cost)
            selected = array[self._offset::2]
            yield from self.emit(TaggedObject(tag=self._role, sequence=sequence, payload=selected))
            sequence += 1
        yield from self.finish()


class EvenElements(_ParitySelect):
    """``even(x)``: elements x[0], x[2], ... tagged for radixcombine."""

    name = "even"
    _offset = 0
    _role = "even"


class OddElements(_ParitySelect):
    """``odd(x)``: elements x[1], x[3], ... tagged for radixcombine."""

    name = "odd"
    _offset = 1
    _role = "odd"
