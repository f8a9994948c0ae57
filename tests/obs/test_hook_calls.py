"""The flows hooks cost a pinned number of Python calls per delivered buffer.

One small point-to-point query (121 data buffers of about 1 000 bytes
over 5 torus hops) runs with ``observe="flows"``
(``Instrumentation(tracer=NULL_TRACER)``) and without a hub; the counting
helper (``tests/counting.py``) counts the Python frames entered in
``repro/obs`` and ``repro/sim`` while ``deployment.run()`` drains.  The
counts are exact and host-independent (no sampling, no timing), so the
bounds below are a pin, not a tolerance: a hook frame per kernel state
change, and nothing on the hooks-off path.

Before the hub stopped re-counting the kernel's events and timeouts (and
stepped its series inside the hook's own frame) this point read 145.2
``repro.obs`` calls per buffer and 19.1 more ``repro.sim`` calls per buffer
than the hooks-off run; it now reads 58.7 and 0.01 (CPython 3.11).
"""

from __future__ import annotations

from typing import Dict

from repro.coordinator.deployer import Deployer
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import EnvironmentConfig, shared_template
from repro.obs import Instrumentation
from repro.obs.tracer import NULL_TRACER
from repro.scsql.plan import compile_plan
from tests.counting import assert_exact_across_hash_seeds, frames_entered

#: Node 26 is five torus hops from node 0 on the default 4x4x2 torus.
QUERY = (
    "select extract(b) from sp a, sp b "
    "where b=sp(streamof(count(extract(a))), 'bg', 0) "
    "and a=sp(gen_array(30000,4), 'bg', 26);"
)
SETTINGS = ExecutionSettings(mpi_buffer_bytes=1000, double_buffering=True)
#: ``repro.obs`` frames per delivered buffer with the flows hooks on.
MAX_OBS_CALLS_PER_BUFFER = 70.0
#: ``repro.sim`` frames per delivered buffer beyond the hooks-off run.
MAX_SIM_SURPLUS_PER_BUFFER = 1.0


def count_calls(observed: bool) -> Dict[str, int]:
    """Frames entered per layer while one run of the point drains, and the
    data buffers it delivered (taken after an identical warm-up run)."""
    plan = compile_plan(QUERY, settings=SETTINGS)
    for counted in (False, True):
        obs = Instrumentation(tracer=NULL_TRACER) if observed else None
        env = shared_template(EnvironmentConfig()).fork(seed=1, obs=obs)
        deployer = Deployer(env)
        deployment = deployer.deploy(deployer.place(plan, settings=SETTINGS))
        if counted:
            counts, report = frames_entered(deployment.run, ("obs", "sim"))
        else:
            report = deployment.run()
        deployer.teardown()
        assert list(report.result) == [4]
    counts["buffers"] = (
        sum(not record.eos for record in obs.flows.completed) if obs is not None else 0
    )
    return counts


def test_the_flows_hooks_cost_one_frame_per_state_change():
    on, off = count_calls(True), count_calls(False)
    buffers = on["buffers"]
    assert buffers == 121
    assert off["obs"] == 0
    assert on["obs"] / buffers <= MAX_OBS_CALLS_PER_BUFFER, on
    assert (on["sim"] - off["sim"]) / buffers <= MAX_SIM_SURPLUS_PER_BUFFER, (on, off)


def test_the_counts_are_exact_across_runs_and_hash_seeds():
    assert_exact_across_hash_seeds(count_calls, True)
