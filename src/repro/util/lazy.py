"""Package re-exports that load on first access: importing one module of a
``repro`` package does not load every module its ``__init__`` re-exports
from."""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(package: str, modules: Mapping[str, Iterable[str]]) -> Callable[[str], Any]:
    """The PEP 562 module ``__getattr__`` of ``package``: each name in
    ``modules`` (module -> names) is imported on first read, then bound on
    the package so later reads skip the hook."""
    exports = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(exports[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
