"""The sender's flush wait: what it costs, and what it must not move.

``SenderDriver._next_object`` waits on ``AnyOf((get, Timeout(remaining)))``
for every object that arrives while a partial buffer is pending.  In the
deck's ``linear-road`` query that is one wait per object on the ``be``
node, and the 5 ms timer never wins: the query ends first.

Two pins:

* **Calls per wait.**  A profile function counts the Python frames entered
  in ``repro/sim`` while ``deployment.run()`` drains the query (hooks off),
  and the ``AnyOf.__init__`` frames among them are the waits.  Before a
  fired ``AnyOf`` left its losing timers, each timer's dispatch called
  ``_check`` once more at 5 ms, a fired condition built its value in more
  frames (``_collect``, its comprehension, ``processed``), and the driver
  reached both events through ``Simulator`` factories: the point read
  65.01 ``repro.sim`` frames per wait.  It now reads 53.01 (CPython 3.11).
  The counts are exact and host-independent.
* **The timer wins.**  At flush intervals short enough for the timer to
  fire, the three deck queries must give what the kernel gave before the
  change, at commit ``008b726``: the float duration, the result and the
  events dispatched, with jitter on and at magnitude 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.bench.query_stream import DEFAULT_SCALE, build_query, registered
from repro.coordinator.deployer import Deployer
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import EnvironmentConfig, shared_template
from repro.net.params import NetworkParams
from repro.scsql.plan import compile_plan
from repro.sim.events import AnyOf

#: ``repro.sim`` frames per flush wait of the linear-road query.
MAX_SIM_CALLS_PER_WAIT = 59.0

_SIM = str(Path(__import__("repro").__file__).parent / "sim") + os.sep
_WAIT = AnyOf.__init__.__code__
_ROOT = Path(__file__).resolve().parents[2]


def count_calls() -> Dict[str, int]:
    """``repro.sim`` frames and flush waits of one drain of the
    linear-road query (data seed 0, env seed 1), after a warm-up run."""
    query = build_query("linear-road", 0, DEFAULT_SCALE, 0)
    plan = compile_plan(query.query)
    counts = {"sim": 0, "waits": 0}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(_SIM):
                counts["sim"] += 1
                if code is _WAIT:
                    counts["waits"] += 1

    for counted in (False, True):
        counts.update(sim=0, waits=0)
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
    return counts


def test_the_flush_wait_costs_one_check_per_wait():
    counts = count_calls()
    assert counts["waits"] == 2864
    assert counts["sim"] / counts["waits"] <= MAX_SIM_CALLS_PER_WAIT, counts


def test_the_counts_are_exact_across_runs_and_hash_seeds():
    first = count_calls()
    assert count_calls() == first
    script = (
        "import json; from tests.engine.test_flush_wait import count_calls; "
        "print(json.dumps(count_calls()))"
    )
    for hash_seed in ("1", "7"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=os.pathsep.join([str(Path(_SIM).parent.parent), str(_ROOT)]),
        )
        out = subprocess.run(
            [sys.executable, "-c", script], cwd=_ROOT, env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        assert json.loads(out) == first, hash_seed


#: ``(kind, flush_interval, env seed, jitter)`` -> ``(repr(duration), result,
#: events_dispatched)``, recorded at commit 008b726 (data seed 0).
TIMER_WINS = {
    ('grep', 0.0001, 1, 0.0): ('0.0069884184641298705', 144, 2418),
    ('grep', 0.0001, 1, 0.01): ('0.007046230943023731', 144, 2393),
    ('grep', 0.0001, 2, 0.0): ('0.0069884184641298705', 144, 2418),
    ('grep', 0.0001, 2, 0.01): ('0.007076922722868936', 144, 2394),
    ('grep', 0.0003, 1, 0.0): ('0.0069884184641298705', 144, 2418),
    ('grep', 0.0003, 1, 0.01): ('0.007046230943023731', 144, 2393),
    ('grep', 0.0003, 2, 0.0): ('0.0069884184641298705', 144, 2418),
    ('grep', 0.0003, 2, 0.01): ('0.007076922722868936', 144, 2394),
    ('grep', 0.001, 1, 0.0): ('0.0069884184641298705', 144, 2418),
    ('grep', 0.001, 1, 0.01): ('0.007046230943023731', 144, 2393),
    ('grep', 0.001, 2, 0.0): ('0.0069884184641298705', 144, 2418),
    ('grep', 0.001, 2, 0.01): ('0.007076922722868936', 144, 2394),
    ('grep', 5e-05, 1, 0.0): ('0.0076592698927013024', 144, 2423),
    ('grep', 5e-05, 1, 0.01): ('0.0072038373088030355', 144, 2385),
    ('grep', 5e-05, 2, 0.0): ('0.0076592698927013024', 144, 2423),
    ('grep', 5e-05, 2, 0.01): ('0.00724187188743984', 144, 2386),
    ('linear-road', 0.0001, 1, 0.0): ('0.0028353196221483057', 18, 32833),
    ('linear-road', 0.0001, 1, 0.01): ('0.0028766110708521833', 18, 29889),
    ('linear-road', 0.0001, 2, 0.0): ('0.0028353196221483057', 18, 32833),
    ('linear-road', 0.0001, 2, 0.01): ('0.0028752267649542083', 18, 29887),
    ('linear-road', 0.0003, 1, 0.0): ('0.0032418061538274667', 18, 32777),
    ('linear-road', 0.0003, 1, 0.01): ('0.0032569156106556875', 18, 29889),
    ('linear-road', 0.0003, 2, 0.0): ('0.0032418061538274667', 18, 32777),
    ('linear-road', 0.0003, 2, 0.01): ('0.0033115781585751018', 18, 29887),
    ('linear-road', 0.001, 1, 0.0): ('0.0032418061538274667', 18, 32768),
    ('linear-road', 0.001, 1, 0.01): ('0.003256931608044017', 18, 29879),
    ('linear-road', 0.001, 2, 0.0): ('0.0032418061538274667', 18, 32768),
    ('linear-road', 0.001, 2, 0.01): ('0.0033305428482254137', 18, 29877),
    ('linear-road', 5e-05, 1, 0.0): ('0.0027602104956332934', 18, 32915),
    ('linear-road', 5e-05, 1, 0.01): ('0.0027627528064339203', 18, 29901),
    ('linear-road', 5e-05, 2, 0.0): ('0.0027602104956332934', 18, 32915),
    ('linear-road', 5e-05, 2, 0.01): ('0.0027618083372966283', 18, 29900),
    ('signals', 0.0001, 1, 0.0): ('0.009334573451184052', 8, 1817),
    ('signals', 0.0001, 1, 0.01): ('0.009352234803156478', 8, 1761),
    ('signals', 0.0001, 2, 0.0): ('0.009334573451184052', 8, 1817),
    ('signals', 0.0001, 2, 0.01): ('0.009336588389434937', 8, 1767),
    ('signals', 0.0003, 1, 0.0): ('0.009334573451184052', 8, 1817),
    ('signals', 0.0003, 1, 0.01): ('0.009352234803156478', 8, 1761),
    ('signals', 0.0003, 2, 0.0): ('0.009334573451184052', 8, 1817),
    ('signals', 0.0003, 2, 0.01): ('0.009336588389434937', 8, 1767),
    ('signals', 0.001, 1, 0.0): ('0.009334573451184052', 8, 1817),
    ('signals', 0.001, 1, 0.01): ('0.009352234803156478', 8, 1761),
    ('signals', 0.001, 2, 0.0): ('0.009334573451184052', 8, 1817),
    ('signals', 0.001, 2, 0.01): ('0.009336588389434937', 8, 1767),
    ('signals', 5e-05, 1, 0.0): ('0.009334573451184052', 8, 1817),
    ('signals', 5e-05, 1, 0.01): ('0.009352234803156478', 8, 1761),
    ('signals', 5e-05, 2, 0.0): ('0.009334573451184052', 8, 1817),
    ('signals', 5e-05, 2, 0.01): ('0.009336588389434937', 8, 1767),
}


@pytest.mark.parametrize("case", sorted(TIMER_WINS), ids=repr)
def test_a_winning_flush_timer_moves_nothing(case):
    kind, interval, seed, jitter = case
    query = build_query(kind, 0, DEFAULT_SCALE, 0)
    settings = ExecutionSettings(flush_interval=interval)
    config = EnvironmentConfig(params=NetworkParams(jitter=jitter))
    with registered([query]):
        env = shared_template(config).fork(seed=seed)
        deployer = Deployer(env)
        plan = compile_plan(query.query, settings=settings)
        deployment = deployer.deploy(deployer.place(plan, settings=settings))
        report = deployment.run()
        deployment.teardown()
    assert (repr(report.duration), *report.result, env.sim.events_dispatched) == TIMER_WINS[case]


def test_the_table_reaches_the_winning_timer():
    """At 5 ms the timer never wins; at the shortest intervals it does, so
    the query's duration moves with the interval."""
    for kind in ("linear-road", "grep"):
        durations = {TIMER_WINS[(kind, interval, 1, 0.01)][0] for interval in (5e-5, 1e-3)}
        assert len(durations) == 2, kind
