"""A buffer in flight is a generator nobody joins.

Torus/TCP forwarding runs as generators driven by ``Simulator.detach``,
and the inbox deposit on callbacks (docs/performance.md).  Over random
query shapes (point-to-point over 1-5 hops, 2-way merge, inbound Q1-Q6;
buffer sizes 200 B - 100 KB; single/double buffering; jitter seed; a
degraded link):

* **flow order**: on every completed flow the delivering model's
  ``*.deliver`` hop precedes ``receiver.inbox`` (a deposit completes its
  depositor before the woken receiver runs), hop times never go back, and
  the components sum to the end-to-end latency — under the eager kernel
  and under one that queues every grant alike;
* **a pin**: the processes a query starts do not depend on how many
  buffers it streams;
* **a parked journey keeps what it holds**: collecting one after the run
  releases nothing, since its releases are explicit.
"""

import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coordinator.deployer import Deployer
from repro.core.experiments.fig8 import merge_query
from repro.core.experiments.fig15 import inbound_query
from repro.engine.inbox import Inbox
from repro.engine.settings import ExecutionSettings
from repro.hardware.bluegene import BlueGene, BlueGeneConfig
from repro.hardware.environment import EnvironmentConfig, shared_template
from repro.net import message
from repro.net.message import WireBuffer
from repro.net.torus import TorusNetwork
from repro.obs import Instrumentation
from repro.obs.instrument import instrumentation_for
from repro.scsql.plan import compile_plan
from repro.sim import Simulator, scheduler_override
from repro.sim.introspect import waiters_of
from tests.sim.test_eager_grants import NeverQuiescent

#: Source node at each torus distance from node 0 (default 4x4x2 torus).
NODE_AT_HOPS = {1: 1, 2: 2, 3: 6, 4: 10, 5: 26}


def p2p_query(array_bytes, count, hops):
    return (
        "select extract(b) from sp a, sp b "
        "where b=sp(streamof(count(extract(a))), 'bg', 0) "
        f"and a=sp(gen_array({array_bytes},{count}), 'bg', {NODE_AT_HOPS[hops]});"
    )


_buffer_bytes = st.sampled_from([200, 1000, 5000, 20_000, 100_000])


@st.composite
def cases(draw):
    buffer_bytes = draw(_buffer_bytes)
    volume = max(4 * buffer_bytes, 20_000)  # a handful to a hundred buffers
    shape = draw(st.sampled_from(["p2p", "merge", "inbound"]))
    if shape == "p2p":
        query = p2p_query(volume, 2, draw(st.integers(1, 5)))
    elif shape == "merge":
        query = merge_query(volume, 2, *draw(st.sampled_from([(1, 2), (1, 4), (6, 26)])))
    else:
        query = inbound_query(draw(st.integers(1, 6)), draw(st.integers(1, 3)), volume, 2)
    return {
        "query": query,
        "settings": ExecutionSettings(
            mpi_buffer_bytes=buffer_bytes, double_buffering=draw(st.booleans())
        ),
        "seed": draw(st.integers(0, 3)),
        "degraded": draw(st.booleans()),
    }


def run_case(query, settings, seed, degraded):
    """One observed run; returns everything the model promises about it."""
    config = EnvironmentConfig().with_seed(seed)
    obs = instrumentation_for("flows")
    env = shared_template(config).fork(seed=seed, obs=obs)
    if degraded:
        env.torus.degrade_link(1, 0, 3.0)
    message._buffer_ids = itertools.count()
    report = Deployer(env).run(compile_plan(query, settings=settings), settings=settings)
    counters = report.metrics.counters
    return {
        "duration": report.duration,
        "result": report.result,
        "stream_bytes": {k: v for k, v in counters.items() if k.startswith("stream.")},
        "resources": {k: v for k, v in counters.items() if k.startswith("resource.")},
        "latencies": sorted(flow.latency for flow in obs.flows.completed),
        "flows": obs.flows.completed,
        "hops": [flow.hops for flow in obs.flows.completed],
        "events": env.sim.events_dispatched,
        "processes_started": counters["sim.processes_started"],
    }


class TestFlowOrder:
    @given(case=cases())
    @settings(max_examples=25, deadline=None)
    def test_deliver_precedes_pickup_under_both_kernels(self, case):
        eager = run_case(**case)
        with scheduler_override(NeverQuiescent):
            queued = run_case(**case)
        assert eager["duration"] == queued["duration"]
        for run in (eager, queued):
            assert run["flows"]
            for flow in run["flows"]:
                stages = [hop.stage for hop in flow.hops]
                delivers = [i for i, stage in enumerate(stages) if stage.endswith(".deliver")]
                assert len(delivers) == 1, stages  # the EOS buffer's is there too
                if "receiver.inbox" in stages:
                    assert delivers[0] < stages.index("receiver.inbox"), stages
                ends = [hop.end for hop in flow.hops]
                assert ends == sorted(ends) and all(h.start <= h.end for h in flow.hops)
                assert flow.birth <= ends[0] and ends[-1] <= flow.delivered
                assert sum(flow._component_sums()) == pytest.approx(
                    flow.latency, abs=1e-9
                )
        # Same hops in the same order, whichever kernel delivered the grants.
        assert [f.hops for f in eager["flows"]] == [f.hops for f in queued["flows"]]


def test_processes_started_does_not_grow_with_the_buffer_count():
    settings_ = ExecutionSettings(mpi_buffer_bytes=1000)
    few = run_case(p2p_query(10_000, 3, hops=2), settings_, seed=0, degraded=False)
    many = run_case(p2p_query(80_000, 3, hops=2), settings_, seed=0, degraded=False)
    data_buffers = [sum(not flow.eos for flow in run["flows"]) - 1 for run in (few, many)]
    assert data_buffers == [30, 240]  # less the one result buffer
    assert few["processes_started"] == many["processes_started"]


def test_collecting_a_parked_journey_changes_no_metric():
    """The journey parked on a full inbox holds the destination
    co-processor when the run ends; reclaiming its generator must not
    release it (a ``finally`` or ``with`` around the deposit would)."""
    sim = Simulator(obs=Instrumentation())
    torus = TorusNetwork(sim, BlueGene(BlueGeneConfig(torus_shape=(4, 4, 2), pset_size=8)))

    def sender(inbox):
        for _ in range(2):
            yield from torus.send(WireBuffer.data("s", "bg:26", 1000, []), 26, 0, inbox)

    inbox = Inbox(sim, slots=1)  # nobody releases the slot
    sim.process(sender(inbox))
    sim.run()
    before = sim.obs.metrics.snapshot(sim.now)
    assert torus.coprocessor(0).count == 1 and torus.in_flight_census() == [("s", 1)]
    (blocked,) = inbox.kernel_stores()[0]._getters
    (journey,) = waiters_of(blocked)
    parked = weakref.ref(journey._generator)
    del inbox, blocked, journey
    gc.collect()
    assert parked() is None  # reclaimed
    assert torus.coprocessor(0).count == 1 and torus.in_flight_census() == [("s", 1)]
    assert sim.obs.metrics.snapshot(sim.now) == before
