"""Lexically nested variable scopes for the SCSQL evaluator."""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.util.errors import QuerySemanticError

#: Sentinel for declared-but-not-yet-bound variables.
UNBOUND = object()


class Scope:
    """One binding environment; nested selects/functions get child scopes."""

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self._bindings: Dict[str, Any] = {}

    def declare(self, name: str) -> None:
        """Introduce ``name`` in this scope, unbound."""
        if name in self._bindings:
            raise QuerySemanticError(f"variable {name!r} declared twice")
        self._bindings[name] = UNBOUND

    def bind(self, name: str, value: Any) -> None:
        """Bind a declared (or new) name in this scope."""
        self._bindings[name] = value

    def lookup(self, name: str) -> Any:
        """The value of ``name``, searching enclosing scopes.

        Raises:
            QuerySemanticError: If the name is undeclared or still unbound.
        """
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope._bindings:
                value = scope._bindings[name]
                if value is UNBOUND:
                    raise QuerySemanticError(
                        f"variable {name!r} is used before it is defined"
                    )
                return value
            scope = scope.parent
        raise QuerySemanticError(f"undeclared variable {name!r}")

    def child(self) -> "Scope":
        return Scope(parent=self)
