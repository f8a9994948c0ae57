"""Run attribution from outside: cProfile grouped by source path, and GC time.

Layer names are the module names of ``src/repro``.  ``cProfile`` charges
every Python call but nothing inside native code, which shifts the
proportions towards call-heavy layers; the shares say where to look, the
untraced passes say how much a change bought.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import time
from typing import Dict

#: Self-time layers, in reporting order.  ``net.other`` is params, jitter,
#: channels and message; ``other`` is everything outside these (the rest of
#: repro — core, util, workloads, bench — stdlib, numpy, builtins and the
#: ledger's own frames).
SELF_LAYERS = (
    "sim", "engine", "net.torus", "net.ethernet", "net.other", "obs",
    "coordinator", "scsql", "analysis", "hardware", "other",
)
#: Layers that own kernel-resumed generator frames.
OWNER_LAYERS = ("engine", "net.torus", "net.ethernet", "coordinator")

_NET_FILES = {"torus.py": "net.torus", "ethernet.py": "net.ethernet"}
_PACKAGES = ("sim", "engine", "obs", "coordinator", "scsql", "analysis", "hardware")
#: How cProfile names the built-ins that resume a generator.
_RESUMERS = (
    "<method 'send' of 'generator' objects>",
    "<method 'throw' of 'generator' objects>",
)


def layer_of(filename: str) -> str:
    """The layer owning source file ``filename`` ('~' for built-ins)."""
    _, found, inside = filename.replace("\\", "/").rpartition("/repro/")
    if not found:
        return "other"
    package, _, rest = inside.partition("/")
    if package == "net":
        return _NET_FILES.get(rest, "net.other")
    return package if package in _PACKAGES else "other"


def attribute(profile: cProfile.Profile) -> Dict[str, float]:
    """Self-time share per layer and owned share per generator owner.

    Owned time is the inclusive time on the callee edges of the generator
    ``send``/``throw`` built-ins — the frames the kernel resumes — charged
    to the module of the resumed generator.  What is left of the profiled
    time is kernel dispatch (and the harness): ``sim.dispatch_share``.
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    self_time = {layer: 0.0 for layer in SELF_LAYERS}
    owned = {layer: 0.0 for layer in OWNER_LAYERS}
    for (filename, _, _), (_, _, tottime, _, callers) in stats.items():
        layer = layer_of(filename)
        self_time[layer] += tottime
        if layer in owned:
            for (caller_file, _, caller_name), edge in callers.items():
                if caller_file == "~" and caller_name in _RESUMERS:
                    owned[layer] += edge[3]
    total = sum(self_time.values())
    shares = {f"{layer}.self_share": self_time[layer] / total for layer in SELF_LAYERS}
    shares.update({f"{layer}.owned_share": owned[layer] / total for layer in OWNER_LAYERS})
    shares["sim.dispatch_share"] = 1.0 - sum(owned.values()) / total
    return shares


class GcMeter:
    """Collector time and collection count, through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self._callback)
