"""A buffer in flight is a callback chain — and nothing simulated can tell.

Torus/TCP forwarding runs as ``Journey`` callback chains started by
``Simulator.detach``, and the inbox deposit on callbacks
(docs/performance.md).  Three checks, over random query shapes
(point-to-point over 1-5 hops, 2-way merge, inbound Q1-Q6; buffer sizes
200 B - 100 KB; single/double buffering; jitter seed; a degraded link):

* **differential**, in the style of ``tests/sim/test_eager_grants.py``:
  the same query with the journeys run as the generators they replaced
  (the reference below: ``_forward``/``_receive`` driven by a generator
  driver from the same start events), under the eager kernel and under
  one that queues every grant, reports the same duration, result,
  per-stream bytes, flow hops, resource acquire/wait counters and
  dispatched events, float for float;
* **flow order**: on every completed flow the delivering model's
  ``*.deliver`` hop precedes ``receiver.inbox`` (a deposit completes its
  depositor before the woken receiver runs), hop times never go back, and
  the components sum to the end-to-end latency — under the eager kernel
  and under one that queues every grant alike;
* **a pin**: the processes a query starts do not depend on how many
  buffers it streams.
"""

import contextlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coordinator.deployer import Deployer
from repro.core.experiments.fig8 import merge_query
from repro.core.experiments.fig15 import inbound_query
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import EnvironmentConfig, shared_template
from repro.net import message
from repro.net.ethernet import TcpStreamConnection
from repro.net.message import WireBuffer
from repro.net.torus import TorusNetwork
from repro.obs.instrument import instrumentation_for
from repro.scsql.plan import compile_plan
from repro.sim import scheduler_override
from repro.util.errors import NetworkError
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


# ----------------------------------------------------------------------
# The reference: a buffer in flight as a driven generator
# ----------------------------------------------------------------------
class GeneratorDriver:
    """Runs a generator from ``start`` on with no process around it: what
    ``Simulator.detach`` did before journeys were callback chains."""

    __slots__ = ("_generator",)

    def __init__(self, sim, generator, start=None):
        self._generator = generator
        if start is None:
            start = sim.event()
            start._ok = True
            start._value = None
            sim._push(sim.now, 0, start)  # urgent, zero delay
        start.callbacks.append(self._resume)

    def _resume(self, event):
        while True:
            try:
                event = self._generator.send(event._value)
            except StopIteration:
                return
            if event.callbacks is not None:
                event.callbacks.append(self._resume)
                return


def reference_torus_send(self, buffer, src, dst, deliver):
    if src == dst:
        raise NetworkError(f"torus send with src == dst == {src}")
    path = self.route(src, dst)
    flows = self.sim.obs.flows
    slot = self._stream_window(buffer.stream_id).get()
    if slot.callbacks is not None:
        yield slot
    if flows.enabled:
        flows.hop(buffer, "torus.window", self.sim.now)
    wire = self.params.handling_time(buffer.nbytes) if not buffer.eos else 0.0
    with self.coprocessor(src).request() as coproc_req:
        if coproc_req.callbacks is not None:
            yield coproc_req
        with self.link(path[0], path[1]).request() as link_req:
            if link_req.callbacks is not None:
                yield link_req
            occupancy = self.params.injection_overhead + wire
            if self._link_slowdown:
                occupancy *= self._link_slowdown.get((path[0], path[1]), 1.0)
            cost = self.jitter.apply(occupancy)
            yield self.sim.timeout(cost)
    if flows.enabled:
        flows.hop(
            buffer, "torus.inject", self.sim.now,
            resource=coproc_req.resource.name, wire=cost,
        )
    self.bytes_on_wire += buffer.nbytes
    obs = self.sim.obs
    if obs.enabled:
        padded = (
            0 if buffer.eos
            else self.params.packet_count(buffer.nbytes) * self.params.packet_bytes
        )
        obs.add("torus.payload_bytes", buffer.nbytes)
        obs.add("torus.wire_bytes", padded)
        obs.add("torus.buffers_sent")
        stream_bytes = self._stream_bytes.get(buffer.stream_id)
        if stream_bytes is None:
            stream_bytes = self._stream_bytes[buffer.stream_id] = obs.metrics.counter(
                f"stream.torus_bytes[{buffer.stream_id}]"
            )
        stream_bytes.add(buffer.nbytes)
    self._in_flight[buffer.stream_id] = self._in_flight.get(buffer.stream_id, 0) + 1
    latency = self.params.hop_latency * (len(path) - 1)
    GeneratorDriver(
        self.sim, reference_forward(self, buffer, path, wire, latency, deliver),
        self.sim.timeout(latency),
    )


def reference_forward(self, buffer, path, wire, latency, deliver):
    flows = self.sim.obs.flows
    if flows.enabled:
        flows.hop(buffer, "torus.hops", self.sim.now, wire=latency)
    for position in range(1, len(path) - 1):
        node = path[position]
        with self.coprocessor(node).request() as coproc_req:
            if coproc_req.callbacks is not None:
                yield coproc_req
            with self.link(path[position], path[position + 1]).request() as link_req:
                if link_req.callbacks is not None:
                    yield link_req
                occupancy = self.params.forward_overhead + wire
                if self._link_slowdown:
                    occupancy *= self._link_slowdown.get(
                        (path[position], path[position + 1]), 1.0
                    )
                cost = self.jitter.apply(occupancy)
                yield self.sim.timeout(cost)
        if flows.enabled:
            flows.hop(
                buffer, self._forward_stages[node], self.sim.now,
                resource=coproc_req.resource.name, wire=cost,
            )
    receive_work = self.params.receive_time(buffer.nbytes) if not buffer.eos else 0.0
    yield from reference_receive(self, buffer, path[-1], receive_work, deliver)
    freed = self._stream_window(buffer.stream_id).put(None)
    if freed.callbacks is not None:
        yield freed
    left = self._in_flight[buffer.stream_id] - 1
    if left:
        self._in_flight[buffer.stream_id] = left
    else:
        del self._in_flight[buffer.stream_id]
        if buffer.stream_id not in self._active_streams.get(path[-1], ()):
            self._release_stream(buffer.stream_id)


def reference_receive(self, buffer, node, receive_work, deliver):
    flows = self.sim.obs.flows
    with self.coprocessor(node).request() as coproc_req:
        if coproc_req.callbacks is not None:
            yield coproc_req
        cost = self.params.receive_overhead + receive_work
        if not buffer.eos:
            cost += self._switch_cost(node)
        previous = self._last_source.get(node)
        if previous is not None and previous != buffer.source:
            self.source_switches += 1
            obs = self.sim.obs
            if obs.enabled:
                obs.add("torus.source_switches")
                switches = self._node_switches.get(node)
                if switches is None:
                    switches = self._node_switches[node] = obs.metrics.counter(
                        f"torus.source_switches[node={node}]"
                    )
                switches.add()
        self._last_source[node] = buffer.source
        cost = self.jitter.apply(cost)
        yield self.sim.timeout(cost)
        if flows.enabled:
            flows.hop(
                buffer, "torus.receive", self.sim.now,
                resource=coproc_req.resource.name, processing=cost,
            )
        deposited = deliver.put(buffer)
        if deposited.callbacks is not None:
            yield deposited
        if flows.enabled:
            flows.hop(buffer, "torus.deliver", self.sim.now)
    self.buffers_delivered += 1


def reference_tcp_send(self, buffer: WireBuffer):
    if not self._open:
        raise NetworkError(f"send on closed connection {self.stream_id!r}")
    fabric = self.fabric
    params = fabric.params
    wire_bytes = buffer.nbytes * (1.0 + params.tcp.header_overhead)
    segments = max(1, -(-buffer.nbytes // params.tcp.segment_bytes))
    flows = fabric.sim.obs.flows
    slot = self._window.get()
    if slot.callbacks is not None:
        yield slot
    if flows.enabled:
        flows.hop(buffer, "tcp.window", fabric.sim.now)
    with fabric.nic(self.source_host).request() as nic_req:
        if nic_req.callbacks is not None:
            yield nic_req
        cost = (
            segments * params.tcp.per_segment_overhead
            + wire_bytes / params.ethernet.nic_rate
        )
        cost = fabric.jitter.apply(cost)
        yield fabric.sim.timeout(cost)
    if flows.enabled:
        flows.hop(
            buffer, "eth.nic", fabric.sim.now,
            resource=nic_req.resource.name, wire=cost,
        )
    fabric.bytes_ingress += buffer.nbytes
    obs = fabric.sim.obs
    if obs.enabled:
        obs.add("ethernet.ingress_bytes", buffer.nbytes)
        obs.add("ethernet.wire_bytes", wire_bytes)
        stream_bytes = self._stream_bytes
        if stream_bytes is None:
            stream_bytes = self._stream_bytes = obs.metrics.counter(
                f"stream.tcp_bytes[{self.stream_id}]"
            )
        stream_bytes.add(buffer.nbytes)
    GeneratorDriver(fabric.sim, reference_tcp_forward(self, buffer, wire_bytes))


def reference_tcp_forward(self, buffer: WireBuffer, wire_bytes: float):
    fabric = self.fabric
    params = fabric.params
    flows = fabric.sim.obs.flows
    with fabric._uplink.request() as uplink_req:
        if uplink_req.callbacks is not None:
            yield uplink_req
        rate = (
            params.ethernet.uplink_rate
            * fabric._uplink_efficiency()
            / fabric._uplink_slowdown
        )
        cost = fabric.jitter.apply(params.ethernet.switch_latency + wire_bytes / rate)
        yield fabric.sim.timeout(cost)
    if flows.enabled:
        flows.hop(
            buffer, "eth.uplink", fabric.sim.now,
            resource="switch-uplink[be->bg]", wire=cost,
        )
    with fabric.io_proxy(self.io_index).request() as proxy_req:
        if proxy_req.callbacks is not None:
            yield proxy_req
        rate = fabric._io_service_rate(self.io_index)
        cost = fabric.jitter.apply(params.io_node.per_buffer_overhead + wire_bytes / rate)
        yield fabric.sim.timeout(cost)
    if flows.enabled:
        flows.hop(
            buffer, "eth.ioproxy", fabric.sim.now,
            resource=proxy_req.resource.name, processing=cost,
        )
    with fabric.tree_link(self.pset_id).request() as tree_req:
        if tree_req.callbacks is not None:
            yield tree_req
        cost = fabric.jitter.apply(buffer.nbytes / params.io_node.tree_rate)
        yield fabric.sim.timeout(cost)
    if flows.enabled:
        flows.hop(
            buffer, "eth.tree", fabric.sim.now,
            resource=tree_req.resource.name, wire=cost,
        )
    receive_work = (
        buffer.nbytes / params.io_node.compute_receive_rate if not buffer.eos else 0.0
    )
    yield from reference_receive(
        fabric.torus, buffer, self.dst_compute_index, receive_work, self.deliver
    )
    fabric.buffers_forwarded += 1
    freed = self._window.put(None)
    if freed.callbacks is not None:
        yield freed


class TestAgainstTheGeneratorJourney:
    @given(case=cases(), queued=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_nothing_simulated_tells_them_apart(self, case, queued):
        kernel = scheduler_override(NeverQuiescent) if queued else contextlib.nullcontext()
        with kernel:
            chains = run_case(**case)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(TorusNetwork, "send", reference_torus_send)
                patch.setattr(TcpStreamConnection, "send", reference_tcp_send)
                reference = run_case(**case)
        for key in (
            "duration", "result", "stream_bytes", "resources", "latencies", "hops",
            "events", "processes_started",
        ):
            assert chains[key] == reference[key], key


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
