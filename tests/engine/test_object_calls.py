"""What an object costs the engine: frames per source object.

A profile function counts the Python frames entered in ``repro/engine``
(and in ``repro/sim``) while ``deployment.run()`` drains the deck's
``linear-road`` query (data seed 0, env seed 1, hooks off), the harness of
``tests/engine/test_flush_wait.py``.  A generator resumed counts as a frame
entered again.  The count is divided by the objects the ``receiver``
operators emit (2 880).

Before an object paid one frame per modelled operation, it cost 37.23
``repro/engine`` frames: a charge went through a wrapper generator, every
operator pulled and pushed through generator helpers, and a get or put
that the store handed back processed was still yielded, to come straight
back through ``Process._resume``.  It now costs 20.88 (CPython 3.11); the
``repro/sim`` frames fell from 52.72 to 51.72.  The counts are exact and
host-independent.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Dict

from repro.bench.query_stream import DEFAULT_SCALE, build_query, registered
from repro.coordinator.deployer import Deployer
from repro.engine.context import ExecutionContext
from repro.hardware.environment import EnvironmentConfig, shared_template
from repro.scsql.plan import compile_plan
from repro.sim.events import Timeout

#: ``repro.engine`` frames per source object of the linear-road query.
MAX_ENGINE_FRAMES_PER_OBJECT = 22.0
#: ``repro.sim`` frames per source object: 52.72 before the change, and not to rise.
MAX_SIM_FRAMES_PER_OBJECT = 53.0

_PACKAGE = Path(__import__("repro").__file__).parent
_ENGINE = str(_PACKAGE / "engine") + os.sep
_SIM = str(_PACKAGE / "sim") + os.sep
_TIMEOUT = Timeout.__init__.__code__
_ROOT = Path(__file__).resolve().parents[2]


def count_frames() -> Dict[str, int]:
    """Frames entered per layer, CPU charges and source objects of one
    drain of the linear-road query, after a warm-up run."""
    query = build_query("linear-road", 0, DEFAULT_SCALE, 0)
    plan = compile_plan(query.query)
    counts = {"engine": 0, "sim": 0, "charges": 0, "objects": 0}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(_ENGINE):
                counts["engine"] += 1
            elif code.co_filename.startswith(_SIM):
                counts["sim"] += 1
                if code is _TIMEOUT and frame.f_back.f_code.co_name == "charge_cpu":
                    counts["charges"] += 1

    for counted in (False, True):
        counts.update(engine=0, sim=0, charges=0)
        with registered([query]):
            env = shared_template(EnvironmentConfig()).fork(seed=1)
            deployer = Deployer(env)
            deployment = deployer.deploy(deployer.place(plan))
            if counted:
                sys.setprofile(profile)
            try:
                report = deployment.run()
            finally:
                sys.setprofile(None)
            deployment.teardown()
        assert list(report.result) == [query.expected_result]
    counts["objects"] = sum(
        op.objects_out
        for rp in deployment.rps.values()
        for op in rp.operators
        if op.name == "receiver"
    )
    return counts


def test_an_object_costs_one_frame_per_modelled_operation():
    counts = count_frames()
    assert counts["objects"] == 2880
    assert counts["engine"] / counts["objects"] <= MAX_ENGINE_FRAMES_PER_OBJECT, counts
    assert counts["sim"] / counts["objects"] <= MAX_SIM_FRAMES_PER_OBJECT, counts


def test_the_counts_are_exact_across_runs_and_hash_seeds():
    first = count_frames()
    assert count_frames() == first
    script = (
        "import json; from tests.engine.test_object_calls import count_frames; "
        "print(json.dumps(count_frames()))"
    )
    for hash_seed in ("1", "7"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=os.pathsep.join([str(_PACKAGE.parent), str(_ROOT)]),
        )
        out = subprocess.run(
            [sys.executable, "-c", script], cwd=_ROOT, env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        assert json.loads(out) == first, hash_seed


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
