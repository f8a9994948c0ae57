"""Deterministic counts of interpreter work, shared by the counting tests.

A profile function counts the Python frames entered in named layers of the
``repro`` package (a resumed generator counts as a frame entered again)
while one callable runs.  There is no sampling and no timing: on one
CPython minor version the counts are exact and host-independent, so a test
pins them as numbers, not tolerances, and
:func:`assert_exact_across_hash_seeds` checks that they stay exact across
runs and hash seeds.

Users: ``tests/engine/test_flush_wait.py`` (events per drain),
``tests/engine/test_object_calls.py`` (frames per object) and
``tests/obs/test_hook_calls.py`` (calls per delivered buffer).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

import repro

PACKAGE = Path(repro.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

#: ``on_call(layer, frame)``: sees every frame a count took.
OnCall = Callable[[str, Any], None]


def frames_entered(
    run: Callable[[], Any], layers: Iterable[str], on_call: Optional[OnCall] = None
) -> Tuple[Dict[str, int], Any]:
    """``({layer: frames entered}, run())``; a layer is a subpackage of
    ``repro`` (``"sim"``, ``"engine"``, ``"obs"``)."""
    prefixes = [(layer, str(PACKAGE / layer) + os.sep) for layer in layers]
    counts = {layer: 0 for layer, _ in prefixes}

    def profile(frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            for layer, prefix in prefixes:
                if filename.startswith(prefix):
                    counts[layer] += 1
                    if on_call is not None:
                        on_call(layer, frame)
                    break

    sys.setprofile(profile)
    try:
        value = run()
    finally:
        sys.setprofile(None)
    return counts, value


def drain_linear_road(
    layers: Iterable[str], on_call: Optional[OnCall] = None
) -> Dict[str, int]:
    """Frames entered per layer while ``deployment.run()`` drains the deck's
    ``linear-road`` query (data seed 0, env seed 1, hooks off), after an
    identical warm-up drain; plus the events that drain dispatched and the
    objects the ``receiver`` operators emitted."""
    from repro.bench.query_stream import DEFAULT_SCALE, build_query, registered
    from repro.coordinator.deployer import Deployer
    from repro.hardware.environment import EnvironmentConfig, shared_template
    from repro.scsql.plan import compile_plan

    query = build_query("linear-road", 0, DEFAULT_SCALE, 0)
    plan = compile_plan(query.query)
    for counted in (False, True):
        with registered([query]):
            env = shared_template(EnvironmentConfig()).fork(seed=1)
            deployer = Deployer(env)
            deployment = deployer.deploy(deployer.place(plan))
            if counted:
                counts, report = frames_entered(deployment.run, layers, on_call)
            else:
                report = deployment.run()
            deployment.teardown()
        assert list(report.result) == [query.expected_result]
    counts["events"] = env.sim.events_dispatched
    counts["objects"] = sum(
        op.objects_out
        for rp in deployment.rps.values()
        for op in rp.operators
        if op.name == "receiver"
    )
    return counts


def assert_exact_across_hash_seeds(count: Callable[..., Dict[str, int]], *args: Any) -> None:
    """``count(*args)`` gives the same counts twice in this interpreter and
    once in each of two fresh ones, under ``PYTHONHASHSEED`` 1 and 7.
    ``count`` is a module-level function of an importable test module."""
    first = count(*args)
    assert count(*args) == first
    call = f"{count.__name__}({', '.join(map(repr, args))})"
    script = (
        f"import json; from {count.__module__} import {count.__name__}; "
        f"print(json.dumps({call}))"
    )
    for hash_seed in ("1", "7"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), str(ROOT)]),
        )
        out = subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        assert json.loads(out) == first, hash_seed
