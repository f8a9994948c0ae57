"""Value records: plain classes that declare ``__slots__`` and write their
own ``__init__``.

A :class:`Record` subclass gets type-strict ``==``, ``repr``, pickling and
:meth:`~Record.replace` from its fields, the ``__slots__`` of the class and
its bases in declaration order; nothing is generated.  A :class:`Record` is
unhashable.  A :class:`Frozen` one rejects assignment and hashes the tuple
of its compared fields, so equal records hash equal.  A frozen ``__init__``
stores its fields with one :meth:`~Record._set_fields` call or, where one is
built per token or per buffer, through each slot's setter (:func:`setters`).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict, Tuple, TypeVar


class _Layout(type):
    """Creates a record class with its field tables, read from ``__slots__``."""

    def __new__(mcls, name: str, bases: Tuple[type, ...], namespace: Dict[str, Any]) -> type:
        base = bases[0] if bases else object
        namespace.setdefault("_uncompared", getattr(base, "_uncompared", ()))
        namespace.setdefault("_unshown", getattr(base, "_unshown", ()))
        fields = getattr(base, "_fields", ()) + tuple(namespace.get("__slots__", ()))
        compared = tuple(field for field in fields if field not in namespace["_uncompared"])
        namespace["_fields"] = fields
        namespace["_compared"] = staticmethod(
            attrgetter(*compared) if len(compared) > 1
            else lambda record: tuple(getattr(record, field) for field in compared))
        namespace["_shown"] = tuple(field for field in fields if field not in
                                    namespace["_uncompared"] + namespace["_unshown"])
        return super().__new__(mcls, name, bases, namespace)


class Record(metaclass=_Layout):
    __slots__ = ()
    _fields: Tuple[str, ...]
    #: Fields left out of ``==``, ``hash`` and ``repr``; out of ``repr`` only.
    _uncompared: Tuple[str, ...]
    _unshown: Tuple[str, ...]
    _compared: Callable[[Any], Tuple[Any, ...]]
    _shown: Tuple[str, ...]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._compared(self) == other._compared(other)  # type: ignore[attr-defined]
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({fields})"

    def __getstate__(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self._fields)

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        self._set_fields(*state)

    def _set_fields(self, *values: Any) -> None:
        """Store ``values`` in the fields, in declaration order."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def replace(self: R, **changes: Any) -> R:
        """A copy with ``changes`` applied, built by ``__init__`` (its checks run)."""
        return self.__class__(**{**{name: getattr(self, name) for name in self._fields},
                                 **changes})


R = TypeVar("R", bound=Record)


class Frozen(Record):
    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._compared(self))


def setters(cls: type) -> Tuple[Callable[[Any, Any], None], ...]:
    """Each field's slot setter, in field order: one C call per store."""
    return tuple(getattr(cls, name).__set__ for name in cls._fields)  # type: ignore[attr-defined]
