"""Property-based end-to-end tests over randomly generated query graphs.

Hypothesis builds random fan-in/fan-out process graphs (generators on
random clusters, optional relay layers, a merging counter sink) and runs
them through the full stack — coordinators, placement, drivers, transports.
Whatever the topology, buffer size, or buffering mode, **conservation must
hold**: the sink counts exactly the objects the generators produced, and
the byte counters balance.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coordinator import Deployer, QueryGraph, SPDef
from repro.engine import ExecutionSettings, plan_input, plan_op
from repro.hardware import Environment, EnvironmentConfig


@st.composite
def random_graph_spec(draw):
    """A random layered dataflow: generators -> (relays) -> count sink."""
    n_generators = draw(st.integers(1, 5))
    generators = []
    for _ in range(n_generators):
        cluster = draw(st.sampled_from(["bg", "be"]))
        nbytes = draw(st.integers(100, 60_000))
        count = draw(st.integers(0, 8))
        relayed = draw(st.booleans())
        generators.append((cluster, nbytes, count, relayed))
    buffer_bytes = draw(st.sampled_from([300, 1000, 8192, 64 * 1024]))
    double = draw(st.booleans())
    return generators, buffer_bytes, double


@given(spec=random_graph_spec())
@settings(max_examples=40, deadline=None)
def test_object_conservation(spec):
    generators, buffer_bytes, double = spec
    env = Environment(EnvironmentConfig())
    graph = QueryGraph()
    sink_inputs = []
    expected = 0
    for k, (cluster, nbytes, count, relayed) in enumerate(generators):
        gen_id = f"gen{k}"
        graph.add(SPDef(gen_id, cluster, plan_op("gen_array", nbytes, count)))
        expected += count
        upstream = gen_id
        if relayed:
            relay_id = f"relay{k}"
            graph.add(
                SPDef(relay_id, "bg", plan_op("relay", children=(plan_input(gen_id),)))
            )
            upstream = relay_id
        sink_inputs.append(plan_input(upstream))
    merged = plan_op("merge", children=tuple(sink_inputs))
    graph.add(SPDef("sink", "bg", plan_op("count", children=(merged,))))
    graph.root_plan = plan_input("sink")

    settings_ = ExecutionSettings(mpi_buffer_bytes=buffer_bytes, double_buffering=double)
    report = Deployer(env).run(graph, settings=settings_)

    # Conservation: every generated object is counted exactly once.
    assert report.scalar_result == expected
    # Byte accounting: the sink received exactly what the generators sent
    # toward it (relays re-send, so compare per-edge stats).
    sink_stats = report.rp_statistics["sink"]
    upstream_ids = [
        f"relay{k}" if relayed else f"gen{k}"
        for k, (_, _, _, relayed) in enumerate(generators)
    ]
    sent_to_sink = sum(
        stream.bytes
        for rp_id in upstream_ids
        for stream in report.rp_statistics[rp_id].sent
        if stream.stream_id.endswith("->sink")
    )
    assert sink_stats.bytes_received == sent_to_sink
    # All nodes released.
    for node in env.bluegene.compute_nodes:
        assert node.running_processes == 0
