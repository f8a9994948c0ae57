"""Operator registry: plan-node names to physical operator classes.

The SQEP compiler emits plan nodes by name; this registry resolves them to
operator classes at instantiation time, so new operators plug in without
touching the plan or compiler code.
"""

from __future__ import annotations

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

_OPERATORS: Dict[str, Type[Operator]] = {}


def register_operator(cls: Type[Operator]) -> Type[Operator]:
    """Add an operator class to the registry under its ``name``."""
    if not cls.name or cls.name == Operator.name:
        raise QueryExecutionError(f"operator class {cls.__name__} has no registry name")
    _OPERATORS[cls.name] = cls
    return cls


def operator_class(name: str) -> Type[Operator]:
    """Look up the operator class registered under ``name``."""
    cls = _OPERATORS.get(name)
    if cls is not None:
        return cls
    if name not in _BUILTINS:
        raise QueryExecutionError(
            f"unknown operator {name!r}; registered: {sorted({**_BUILTINS, **_OPERATORS})}"
        )
    module, attr = _BUILTINS[name]
    return register_operator(
        getattr(importlib.import_module(f"repro.engine.operators.{module}"), attr)
    )


def registered_operators() -> Dict[str, Type[Operator]]:
    """A copy of the registry (name -> class), built-ins loaded."""
    return {name: operator_class(name) for name in (*_BUILTINS, *_OPERATORS)}
