"""A deck deployment replays its inputs: built once, never per run.

:func:`~repro.bench.query_stream.build_query` synthesizes every input of a
deck query (the ``signals`` arrays, the ``grep`` corpus files); each
deployment of that query then replays the same data.  The pins are counts
of generator frames (``tests/counting.py``), not timings: during the build
the ``signals`` query makes 8 ``sinusoid_mixture`` calls and the ``grep``
query generates 12 corpus files, and during a deployment's ``run()``
neither happens again.  While each factory re-synthesized its stream, a
deployment repeated all 8 and all 12.  The two deployments must also give
the same result and dispatch the same events, because the same data
reaches the same operators in the same order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.query_stream import DEFAULT_SCALE, build_query, registered
from repro.coordinator.deployer import Deployer
from repro.hardware.environment import EnvironmentConfig, shared_template
from repro.scsql.plan import compile_plan
from repro.workloads import corpus
from repro.workloads.signals import make_signal_source
from tests.counting import frames_entered

#: The functions that synthesize deck inputs, by frame name.
GENERATORS = ("sinusoid_mixture", "_generate")

#: Events one deployment dispatches at env seed 1 (data seed 0, hooks off).
EVENTS = {"linear-road": 24_076, "signals": 1_740, "grep": 2_214}

#: Generator calls while the query is built.
BUILD_CALLS = {
    "linear-road": {"sinusoid_mixture": 0, "_generate": 0},
    "signals": {"sinusoid_mixture": 8, "_generate": 0},
    "grep": {"sinusoid_mixture": 0, "_generate": 12},
}


def _generator_calls(run):
    calls = dict.fromkeys(GENERATORS, 0)

    def on_call(layer, frame):
        name = frame.f_code.co_name
        if name in calls:
            calls[name] += 1

    _, value = frames_entered(run, ["workloads"], on_call)
    return calls, value


@pytest.mark.parametrize("kind", list(EVENTS))
def test_inputs_are_built_once_and_replayed(kind):
    corpus._generate.cache_clear()
    calls, query = _generator_calls(lambda: build_query(kind, 0, DEFAULT_SCALE, 0))
    assert calls == BUILD_CALLS[kind]
    plan = compile_plan(query.query)
    runs = []
    with registered([query]):
        for _ in range(2):
            env = shared_template(EnvironmentConfig()).fork(seed=1)
            deployer = Deployer(env)
            deployment = deployer.deploy(deployer.place(plan))
            calls, report = _generator_calls(deployment.run)
            deployment.teardown()
            assert calls == dict.fromkeys(GENERATORS, 0)
            runs.append((list(report.result), env.sim.events_dispatched))
    assert runs == [([query.expected_result], EVENTS[kind])] * 2


def test_a_replayed_array_rejects_an_in_place_write():
    factory = make_signal_source(2, n_points=64, seed=3)
    first = next(factory())
    with pytest.raises(ValueError):
        first += 1.0
    with pytest.raises(ValueError):
        first[0] = 0.0
    assert np.array_equal(next(factory()), first)


def test_mutating_a_read_file_list_leaves_the_next_read_alone():
    name = corpus.filename(3)
    lines = corpus.read_file(name)
    expected = list(lines)
    lines[0] = "overwritten"
    lines.append("extra")
    assert corpus.read_file(name) == expected
