"""Frozen dataclasses that cost what a plain class costs to build."""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, TypeVar

T = TypeVar("T", bound=type)


def slot_init(cls: T) -> T:
    """Give ``cls``, a ``dataclass(frozen=True, slots=True)``, an ``__init__``
    that stores each field through its slot descriptor, not through the
    ``object.__setattr__`` per field of the generated one.  Same parameters
    and defaults, ``__post_init__`` still runs; like the generated one it
    is compiled from source.  Callers: the SCSQL AST nodes and the values
    the compiler builds per query (``Span``, ``OpSpec``, ``SPHandle``)."""
    namespace: Dict[str, Any] = {}
    params, body = [], []
    for field in dataclasses.fields(cls):  # type: ignore[arg-type]
        assert field.default_factory is dataclasses.MISSING, f"{cls.__name__}.{field.name}"
        namespace[f"_set_{field.name}"] = getattr(cls, field.name).__set__
        namespace[f"_default_{field.name}"] = field.default
        params.append(field.name + ("" if field.default is dataclasses.MISSING
                                    else f"=_default_{field.name}"))
        body.append(f"_set_{field.name}(self, {field.name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), namespace)
    namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    setattr(cls, "__init__", namespace["__init__"])
    return cls
