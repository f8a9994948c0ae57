"""What an object costs the engine: frames per source object.

The counting helper (``tests/counting.py``) counts the Python frames
entered in ``repro/engine`` (and in ``repro/sim``) while
``deployment.run()`` drains the deck's ``linear-road`` query (data seed 0,
env seed 1, hooks off), and the events that drain dispatches, which
``tests/engine/test_flush_wait.py`` bounds.  A generator resumed counts as
a frame entered again.  The frame counts are divided by the objects the
``receiver`` operators emit (2 880).

Before an object paid one frame per modelled operation, it cost 37.23
``repro/engine`` frames: a charge went through a wrapper generator, every
operator pulled and pushed through generator helpers, and a get or put
that the store handed back processed was still yielded, to come straight
back through ``Process._resume``.  It now costs 20.88 (CPython 3.11); the
``repro/sim`` frames fell from 52.72 to 51.72, and to 44.77 once a flush
wait became the bare get (``tests/engine/test_flush_wait.py``).  The counts
are exact and host-independent: one test checks the events, ``engine``
frames and ``sim`` frames of one drain across runs and hash seeds.
"""

from __future__ import annotations

import inspect
import sys
import textwrap
from typing import Dict

from repro.engine.context import ExecutionContext
from repro.sim.events import Timeout
from tests.counting import assert_exact_across_hash_seeds, drain_linear_road

#: ``repro.engine`` frames per source object of the linear-road query.
MAX_ENGINE_FRAMES_PER_OBJECT = 22.0
#: ``repro.sim`` frames per source object: 51.72 while each flush wait was a
#: condition over the get and a timer, 44.77 since it is the bare get.
MAX_SIM_FRAMES_PER_OBJECT = 45.0

_TIMEOUT = Timeout.__init__.__code__


def count_frames() -> Dict[str, int]:
    """Frames entered per layer, CPU charges, events and source objects of
    one drain of the linear-road query, after a warm-up run: every count of
    this module and of ``tests/engine/test_flush_wait.py``."""
    charges = 0

    def on_call(layer, frame):
        nonlocal charges
        if frame.f_code is _TIMEOUT and frame.f_back.f_code.co_name == "charge_cpu":
            charges += 1

    counts = drain_linear_road(("engine", "sim"), on_call)
    counts["charges"] = charges
    return counts


def test_an_object_costs_one_frame_per_modelled_operation():
    counts = count_frames()
    assert counts["objects"] == 2880
    assert counts["engine"] / counts["objects"] <= MAX_ENGINE_FRAMES_PER_OBJECT, counts
    assert counts["sim"] / counts["objects"] <= MAX_SIM_FRAMES_PER_OBJECT, counts


def test_the_counts_are_exact_across_runs_and_hash_seeds():
    assert_exact_across_hash_seeds(count_frames)


def test_one_more_call_per_charge_moves_the_count_by_the_charges(monkeypatch):
    """Mutation check: the charge, recompiled from its source (and its file
    name) with one extra no-op call, costs exactly one frame more per charge."""
    source = textwrap.dedent(inspect.getsource(ExecutionContext.charge_cpu))
    lines = source.splitlines(keepends=True)
    lines.insert(1, "    _noop()\n")  # first statement of the body
    mutated = "def _noop():\n    pass\n\n\n" + "".join(lines)
    namespace = dict(vars(sys.modules[ExecutionContext.__module__]))
    exec(compile(mutated, inspect.getsourcefile(ExecutionContext), "exec"), namespace)
    before = count_frames()
    monkeypatch.setattr(ExecutionContext, "charge_cpu", namespace["charge_cpu"])
    after = count_frames()
    assert before["charges"] > before["objects"]
    assert after["charges"] == before["charges"]
    assert after["engine"] - before["engine"] == before["charges"]
    assert after["sim"] == before["sim"]
