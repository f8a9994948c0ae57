"""Operator lookup: plan-node names to physical operator classes.

The SQEP compiler emits plan nodes by the names of :data:`_BUILTINS`, the
only names SCSQL can produce; :func:`operator_class` resolves one to its
class when a running process builds the node.
"""

from __future__ import annotations

import functools
import importlib
from typing import Dict, Tuple, Type

from repro.engine.operators.base import Operator
from repro.util.errors import QueryExecutionError

#: The built-in operators: registry name -> (module, class).  A module is
#: imported on the first lookup of one of its names, so a query loads the
#: operators it runs and no others.
_BUILTINS: Dict[str, Tuple[str, str]] = {
    "gen_array": ("sources", "GenerateArrays"),
    "constant": ("sources", "Constant"),
    "iota": ("sources", "Iota"),
    "receiver": ("sources", "ExternalReceiver"),
    "count": ("aggregates", "Count"),
    "sum": ("aggregates", "Sum"),
    "avg": ("aggregates", "Avg"),
    "maxagg": ("aggregates", "MaxAgg"),
    "minagg": ("aggregates", "MinAgg"),
    "merge": ("merge", "Merge"),
    "relay": ("merge", "Relay"),
    "first": ("merge", "First"),
    "above": ("filters", "Above"),
    "below": ("filters", "Below"),
    "sample": ("filters", "Sample"),
    "even": ("transforms", "EvenElements"),
    "odd": ("transforms", "OddElements"),
    "fft": ("fft", "Fft"),
    "radixcombine": ("fft", "RadixCombine"),
    "grep": ("grep", "Grep"),
    "window": ("window", "WindowAggregate"),
    "groupwin": ("groupwin", "GroupWindowAggregate"),
}


@functools.cache
def operator_class(name: str) -> Type[Operator]:
    """The operator class of the built-in ``name``."""
    if name not in _BUILTINS:
        raise QueryExecutionError(f"unknown operator {name!r}; known: {sorted(_BUILTINS)}")
    module, attr = _BUILTINS[name]
    return getattr(importlib.import_module(f"repro.engine.operators.{module}"), attr)
