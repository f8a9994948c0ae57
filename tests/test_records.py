"""Every value record keeps the behaviour it had as a dataclass.

One instance per record class: ``==`` is type-strict, a frozen record
hashes by value and rejects assignment, a mutable one is unhashable, the
``repr`` is the text the dataclass printed (recorded below), and pickling
under protocols 2-5 and ``copy`` round-trip.  The fields a dataclass kept
out of ``==`` or ``repr`` stay out.
"""

import copy
import pickle

import pytest

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.bench.benchmark import BenchReport
from repro.bench.faults import (
    FaultedRunResult,
    FaultEvent,
    FaultOutcome,
    FaultSchedule,
    FaultTask,
)
from repro.bench.query_stream import BenchQuery, StreamScale
from repro.coordinator.allocation import (
    ExplicitNodesSpec,
    InPsetSpec,
    PsetRoundRobinSpec,
    UrrSpec,
)
from repro.coordinator.deployer import ExecutionReport, MigrationRecord, PlacedPlan
from repro.coordinator.graph import QueryGraph, SPDef
from repro.coordinator.resolver import Assignment
from repro.core.experiments.adaptive import AdaptiveComparison
from repro.core.experiments.scale import ScaleResult
from repro.core.measurement import BandwidthResult, PointSpec, SweepResult
from repro.core.multiquery import MultiQueryResult, QueryOutcome, _Entry
from repro.core.parallel import SweepTask, TaskOutcome
from repro.engine.monitor import OperatorStats, RPStatistics, StreamStats
from repro.engine.objects import SyntheticArray, TaggedObject
from repro.engine.settings import ExecutionSettings
from repro.engine.sqep import OpSpec
from repro.hardware.bluegene import BlueGeneConfig
from repro.hardware.environment import EnvironmentConfig, TopologySnapshot
from repro.hardware.linux_cluster import LinuxClusterConfig
from repro.hardware.node import CpuSpec, Node, NodeCapabilities, NodeKind
from repro.net.message import Fragment, WireBuffer
from repro.net.params import (
    CpuCostParams,
    EthernetParams,
    IONodeParams,
    NetworkParams,
    TcpParams,
    TorusParams,
)
from repro.obs.flow import FlowRecord
from repro.obs.health import HealthEvent
from repro.obs.live import WindowSample
from repro.obs.metrics import MetricsSnapshot
from repro.obs.profile import BottleneckReport, ResourceCost, StageCost, StreamLatency
from repro.optimizer.predict import InboundShape
from repro.scsql.ast import (
    Condition,
    CondKind,
    CreateFunction,
    Decl,
    FuncCall,
    Literal,
    Param,
    SelectQuery,
    SetExpr,
    Var,
)
from repro.scsql.handles import SPHandle, SPVHandle
from repro.scsql.plan import DeploymentPlan
from repro.util.source import Span
from repro.util.stats import MeasurementStats
from repro.workloads.linear_road import Accident

CPU = CpuSpec("PPC440d", 7e8)
CAPS = NodeCapabilities(True, 2, True)
REPORT = ExecutionReport([3], 0.5, {"a": "bg:1"}, {"a": 100})
SPAN = Span(1, 2)

#: One instance per record class, built from plain values.
CASES = {
    Diagnostic: lambda: Diagnostic("SCSQ201", Severity.ERROR, "held", SPAN, "a"),
    AnalysisReport: lambda: AnalysisReport(),
    BenchReport: lambda: BenchReport("gate", {"x": 1.0}),
    FaultEvent: lambda: FaultEvent(0.5, "kill-node", 3),
    FaultSchedule: lambda: FaultSchedule(),
    FaultedRunResult: lambda: FaultedRunResult({"s0": REPORT}, {"s0": 1.0}, 1.0, 0.5),
    FaultTask: lambda: FaultTask(0, 2, "kill-node"),
    FaultOutcome: lambda: FaultOutcome("kill-node", 0, 2, 0.5, 1.0, 1.2, 0.2, 0.8, {"s0": 3.0},
                                       ["bg:1"], [], ["s0"], True),
    StreamScale: lambda: StreamScale("smoke", 1, 2, 3, 4, 5, 6, 7),
    BenchQuery: lambda: BenchQuery("grep", 0, "select 1;", 100, {}),
    ExplicitNodesSpec: lambda: ExplicitNodesSpec((0, 1)),
    UrrSpec: lambda: UrrSpec("be"),
    InPsetSpec: lambda: InPsetSpec("bg", 2),
    PsetRoundRobinSpec: lambda: PsetRoundRobinSpec("bg"),
    MigrationRecord: lambda: MigrationRecord("a", "bg:1", "bg:2", "q+g1/", 0.25, True),
    ExecutionReport: lambda: ExecutionReport([3], 0.5, {"a": "bg:1"}, {"a": 100}),
    PlacedPlan: lambda: PlacedPlan(QueryGraph(), ExecutionSettings()),
    SPDef: lambda: SPDef("a", "bg", OpSpec("count"), None, SPAN),
    QueryGraph: lambda: QueryGraph({"a": SPDef("a", "bg")}),
    Assignment: lambda: Assignment({}, {"bg": 2}),
    AdaptiveComparison: lambda: AdaptiveComparison("fig15", None, None),
    ScaleResult: lambda: ScaleResult((4, 4, 2), 8, 100, 12.5, 30, 4096),
    BandwidthResult: lambda: BandwidthResult(MeasurementStats((1.0,), 1.0, 0.0, 1.0, 1.0), 100),
    PointSpec: lambda: PointSpec(("k", 1), "select 1;", 100),
    SweepResult: lambda: SweepResult(None, {}),
    QueryOutcome: lambda: QueryOutcome("q", REPORT, 100),
    MultiQueryResult: lambda: MultiQueryResult(),
    _Entry: lambda: _Entry(None, 100, None),
    SweepTask: lambda: SweepTask(("k", 1), 0, "select 1;", 100),
    TaskOutcome: lambda: TaskOutcome(("k", 1), 0, REPORT),
    OperatorStats: lambda: OperatorStats("count", 3, 1),
    StreamStats: lambda: StreamStats("s", 1000, 2),
    RPStatistics: lambda: RPStatistics("a", "bg:1", (OperatorStats("count", 3, 1),), (),
                                       (StreamStats("s", 1000, 2),), 0.25),
    SyntheticArray: lambda: SyntheticArray(1000, 2),
    TaggedObject: lambda: TaggedObject("t", 1, "x"),
    ExecutionSettings: lambda: ExecutionSettings(),
    OpSpec: lambda: OpSpec("count", (1,), (OpSpec("input", (), (), "a"),)),
    BlueGeneConfig: lambda: BlueGeneConfig(),
    EnvironmentConfig: lambda: EnvironmentConfig(),
    TopologySnapshot: lambda: TopologySnapshot((1,), (("bg", 0),), (("bg", ((0, False),)),),
                                               ((0, False),)),
    LinuxClusterConfig: lambda: LinuxClusterConfig("be", 4),
    CpuSpec: lambda: CPU,
    NodeCapabilities: lambda: CAPS,
    Node: lambda: Node("bg:1", "bg", 1, NodeKind.BG_COMPUTE, CPU, CAPS, (1, 0, 0), 0, 1, True),
    Fragment: lambda: Fragment(7, 0, 2, 500, "x"),
    WireBuffer: lambda: WireBuffer(3, "s", "bg:1", 1000, (Fragment(7, 0, 2, 500),), False),
    TorusParams: lambda: TorusParams(),
    CpuCostParams: lambda: CpuCostParams(),
    EthernetParams: lambda: EthernetParams(),
    TcpParams: lambda: TcpParams(),
    IONodeParams: lambda: IONodeParams(),
    NetworkParams: lambda: NetworkParams(),
    FlowRecord: lambda: FlowRecord(1, 2, "s", "bg:1", 100, 0.5),
    HealthEvent: lambda: HealthEvent(0.5, 2, "hot", "resource", "cpu[bg:1]", 0.9),
    WindowSample: lambda: WindowSample(0, 0.0, 0.1, 10, 2, 200, 1, 0.016, {"p50": 1.0}),
    MetricsSnapshot: lambda: MetricsSnapshot(0.5, {"c": 1.0}),
    ResourceCost: lambda: ResourceCost("cpu", 0.1, 0.0, 3, 1, ("send",), ("s",)),
    StageCost: lambda: StageCost("send", 0.1, 0.0, 3),
    StreamLatency: lambda: StreamLatency("s", 3, 1.0, 1.0, 1.5, 2.0),
    BottleneckReport: lambda: BottleneckReport(3, 0),
    InboundShape: lambda: InboundShape(4, 2, 2, 4),
    Literal: lambda: Literal(3),
    Var: lambda: Var("a"),
    FuncCall: lambda: FuncCall("count", (Var("a"),), SPAN),
    SetExpr: lambda: SetExpr((Var("a"), Literal("b"))),
    Decl: lambda: Decl("a", "sp", True),
    Condition: lambda: Condition(CondKind.EQ, "a", Literal(1)),
    SelectQuery: lambda: SelectQuery(Var("a"), (Decl("a", "sp"),)),
    Param: lambda: Param("n", "integer"),
    CreateFunction: lambda: CreateFunction("f", (Param("n", "integer"),), "integer",
                                           SelectQuery(Var("n"))),
    SPHandle: lambda: SPHandle("a@1"),
    SPVHandle: lambda: SPVHandle((SPHandle("a@1"),)),
    DeploymentPlan: lambda: DeploymentPlan("select 1;", QueryGraph()),
    Span: lambda: SPAN,
    MeasurementStats: lambda: MeasurementStats((1.0, 3.0), 2.0, 1.4, 1.0, 3.0),
    Accident: lambda: Accident(3, 10, 20),
}

#: Formerly ``@dataclass(frozen=True)``: hashable, assignment raises.
FROZEN = {
    Diagnostic, FaultEvent, FaultSchedule, FaultTask, StreamScale, ExplicitNodesSpec, UrrSpec,
    InPsetSpec, PsetRoundRobinSpec, ScaleResult, PointSpec, SweepTask, OperatorStats,
    StreamStats, RPStatistics, SyntheticArray, TaggedObject, ExecutionSettings, OpSpec,
    BlueGeneConfig, EnvironmentConfig, TopologySnapshot, LinuxClusterConfig, CpuSpec,
    NodeCapabilities, Fragment, WireBuffer, TorusParams, CpuCostParams, EthernetParams, TcpParams,
    IONodeParams, NetworkParams, HealthEvent, WindowSample, MetricsSnapshot, ResourceCost,
    StageCost, StreamLatency, InboundShape, Literal, Var, FuncCall, SetExpr, Decl, Condition,
    SelectQuery, Param, CreateFunction, SPHandle, SPVHandle, DeploymentPlan, Span,
    MeasurementStats, Accident,
}

#: Frozen records holding a dict or a list: frozen, but their hash raises.
UNHASHABLE_FIELDS = {WindowSample, MetricsSnapshot, DeploymentPlan}

#: ``repr`` of each instance above, as the dataclass printed it.
REPRS = {
    "Accident": 'Accident(segment=3, start_tick=10, end_tick=20)',
    "AdaptiveComparison": "AdaptiveComparison(point='fig15', static=None, adaptive=None)",
    "AnalysisReport": "AnalysisReport(label='query', diagnostics=[])",
    "Assignment": "Assignment(nodes={}, cursors={'bg': 2})",
    "BandwidthResult": (
        'BandwidthResult(mbps=MeasurementStats(samples=(1.0,), mean=1.0, std=0.0, minimum=1.0, '
        'maximum=1.0), payload_bytes=100, reports=[], observations=[])'
    ),
    "BenchQuery": (
        "BenchQuery(kind='grep', stream_id=0, query='select 1;', payload_bytes=100, sources={}, "
        'expected_result=0)'
    ),
    "BenchReport": (
        "BenchReport(mode='gate', metrics={'x': 1.0}, lines=[], series=None, digests={})"
    ),
    "BlueGeneConfig": 'BlueGeneConfig(torus_shape=(4, 4, 2), pset_size=8)',
    "BottleneckReport": 'BottleneckReport(flows=3, dropped=0, resources=[], stages=[], streams=[])',
    "Condition": "Condition(kind=<CondKind.EQ: '='>, var='a', expr=Literal(value=1))",
    "CpuCostParams": (
        'CpuCostParams(marshal_rate=175000000.0, demarshal_rate=175000000.0, '
        'generate_rate=1400000000.0, per_buffer_overhead=4e-06, per_object_overhead=1e-06, '
        'double_buffer_sync_overhead=7.5e-06)'
    ),
    "CpuSpec": "CpuSpec(model='PPC440d', clock_hz=700000000.0, cores=1)",
    "CreateFunction": (
        "CreateFunction(name='f', params=(Param(name='n', type_name='integer'),), "
        "return_type='integer', body=SelectQuery(select=Var(name='n'), decls=(), conditions=()))"
    ),
    "Decl": "Decl(name='a', type_name='sp', is_bag=True)",
    "DeploymentPlan": (
        "DeploymentPlan(query='select 1;', graph=QueryGraph(sps={}, root_plan=None), "
        'settings=ExecutionSettings(mpi_buffer_bytes=1000, double_buffering=True, '
        'flush_interval=0.005))'
    ),
    "Diagnostic": (
        "Diagnostic(code='SCSQ201', severity=<Severity.ERROR: 'error'>, message='held', "
        "sp_id=Span(line=1, column=2), span='a')"
    ),
    "EnvironmentConfig": (
        'EnvironmentConfig(bluegene=BlueGeneConfig(torus_shape=(4, 4, 2), pset_size=8), '
        'backend_nodes=4, frontend_nodes=2, '
        'params=NetworkParams(torus=TorusParams(link_rate=175000000.0, packet_bytes=1024, '
        'hop_latency=5e-07, injection_overhead=1.5e-06, receive_overhead=1.5e-06, '
        'forward_overhead=1e-06, source_switch_penalty=4e-05, cache_knee_bytes=1000, '
        'cache_penalty=4.0, stream_window=2, receive_fraction=0.62), '
        'cpu=CpuCostParams(marshal_rate=175000000.0, demarshal_rate=175000000.0, '
        'generate_rate=1400000000.0, per_buffer_overhead=4e-06, per_object_overhead=1e-06, '
        'double_buffer_sync_overhead=7.5e-06), ethernet=EthernetParams(nic_rate=125000000.0, '
        'uplink_rate=125000000.0, switch_latency=2e-05), tcp=TcpParams(header_overhead=0.05, '
        'segment_bytes=65536, per_segment_overhead=8e-06, connection_setup=0.0005, '
        'window_segments=4), io_node=IONodeParams(proxy_rate=106250000.0, '
        'per_buffer_overhead=1.2e-05, peer_coordination=0.35, connection_sharing_penalty=1.8, '
        'uplink_host_coordination=0.08, compute_receive_rate=32000000.0, tree_rate=350000000.0), '
        'jitter=0.01), seed=0)'
    ),
    "EthernetParams": (
        'EthernetParams(nic_rate=125000000.0, uplink_rate=125000000.0, switch_latency=2e-05)'
    ),
    "ExecutionReport": (
        "ExecutionReport(result=[3], duration=0.5, rp_placements={'a': 'bg:1'}, "
        "bytes_sent={'a': 100}, stopped=False, rp_statistics={})"
    ),
    "ExecutionSettings": (
        'ExecutionSettings(mpi_buffer_bytes=1000, double_buffering=True, flush_interval=0.005)'
    ),
    "ExplicitNodesSpec": 'ExplicitNodesSpec(nodes=(0, 1))',
    "FaultEvent": "FaultEvent(time=0.5, scenario='kill-node', target=3, factor=8.0, replan=True)",
    "FaultOutcome": (
        "FaultOutcome(scenario='kill-node', seed=0, streams=2, fault_time=0.5, "
        'healthy_makespan=1.0, faulted_makespan=1.2, recovery_s=0.2, bandwidth_retained=0.8, '
        "per_stream_mbps={'s0': 3.0}, failed_nodes=['bg:1'], degraded=[], replacements=['s0'], "
        'results_ok=True, flow_records=[], restored=[])'
    ),
    "FaultSchedule": 'FaultSchedule(events=(), seed=0)',
    "FaultTask": (
        "FaultTask(seed=0, streams=2, scenario='kill-node', scale=StreamScale(name='default', "
        'lr_vehicles=24, lr_segments=4, lr_ticks=120, lr_window=20, sig_count=8, '
        'sig_points=1024, grep_files=12))'
    ),
    "FaultedRunResult": (
        "FaultedRunResult(reports={'s0': ExecutionReport(result=[3], duration=0.5, "
        "rp_placements={'a': 'bg:1'}, bytes_sent={'a': 100}, stopped=False, rp_statistics={})}, "
        "completions={'s0': 1.0}, makespan=1.0, fault_time=0.5, failed_nodes=[], degraded=[], "
        'restored=[], replacements=[], flow_records=[])'
    ),
    "FlowRecord": (
        "FlowRecord(flow_id=1, buffer_id=2, stream_id='s', source='bg:1', nbytes=100, birth=0.5, "
        'eos=False, delivered=None, hops=[], _last_ts=0.0)'
    ),
    "Fragment": "Fragment(object_id=7, index=0, total=2, nbytes=500, payload='x')",
    "FuncCall": "FuncCall(name='count', args=(Var(name='a'),))",
    "HealthEvent": (
        "HealthEvent(time=0.5, window=2, kind='hot', scope='resource', subject='cpu[bg:1]', "
        "value=0.9, detail='')"
    ),
    "IONodeParams": (
        'IONodeParams(proxy_rate=106250000.0, per_buffer_overhead=1.2e-05, '
        'peer_coordination=0.35, connection_sharing_penalty=1.8, uplink_host_coordination=0.08, '
        'compute_receive_rate=32000000.0, tree_rate=350000000.0)'
    ),
    "InPsetSpec": "InPsetSpec(cluster='bg', pset_id=2)",
    "InboundShape": 'InboundShape(streams=4, hosts=2, io_nodes=2, receivers=4)',
    "LinuxClusterConfig": "LinuxClusterConfig(name='be', num_nodes=4)",
    "Literal": 'Literal(value=3)',
    "MeasurementStats": (
        'MeasurementStats(samples=(1.0, 3.0), mean=2.0, std=1.4, minimum=1.0, maximum=3.0)'
    ),
    "MetricsSnapshot": (
        "MetricsSnapshot(now=0.5, counters={'c': 1.0}, gauges={}, peaks={}, time_weighted={})"
    ),
    "MigrationRecord": (
        "MigrationRecord(sp_id='a', source='bg:1', target='bg:2', rp_prefix='q+g1/', time=0.25, "
        "ok=True, rolled_back=False, detail='')"
    ),
    "MultiQueryResult": 'MultiQueryResult(outcomes=[], live=None, migrations=[])',
    "NetworkParams": (
        'NetworkParams(torus=TorusParams(link_rate=175000000.0, packet_bytes=1024, '
        'hop_latency=5e-07, injection_overhead=1.5e-06, receive_overhead=1.5e-06, '
        'forward_overhead=1e-06, source_switch_penalty=4e-05, cache_knee_bytes=1000, '
        'cache_penalty=4.0, stream_window=2, receive_fraction=0.62), '
        'cpu=CpuCostParams(marshal_rate=175000000.0, demarshal_rate=175000000.0, '
        'generate_rate=1400000000.0, per_buffer_overhead=4e-06, per_object_overhead=1e-06, '
        'double_buffer_sync_overhead=7.5e-06), ethernet=EthernetParams(nic_rate=125000000.0, '
        'uplink_rate=125000000.0, switch_latency=2e-05), tcp=TcpParams(header_overhead=0.05, '
        'segment_bytes=65536, per_segment_overhead=8e-06, connection_setup=0.0005, '
        'window_segments=4), io_node=IONodeParams(proxy_rate=106250000.0, '
        'per_buffer_overhead=1.2e-05, peer_coordination=0.35, connection_sharing_penalty=1.8, '
        'uplink_host_coordination=0.08, compute_receive_rate=32000000.0, tree_rate=350000000.0), '
        'jitter=0.01)'
    ),
    "Node": (
        "Node(node_id='bg:1', cluster='bg', index=1, kind=<NodeKind.BG_COMPUTE: 'bg_compute'>, "
        "cpu=CpuSpec(model='PPC440d', clock_hz=700000000.0, cores=1), "
        'capabilities=NodeCapabilities(can_listen=True, max_processes=2, can_compute=True), '
        'torus_coord=(1, 0, 0), pset_id=0)'
    ),
    "NodeCapabilities": 'NodeCapabilities(can_listen=True, max_processes=2, can_compute=True)',
    "OpSpec": (
        "OpSpec(name='count', args=(1,), children=(OpSpec(name='input', args=(), children=(), "
        "producer='a'),), producer=None)"
    ),
    "OperatorStats": "OperatorStats(name='count', objects_in=3, objects_out=1)",
    "Param": "Param(name='n', type_name='integer')",
    "PlacedPlan": (
        'PlacedPlan(graph=QueryGraph(sps={}, root_plan=None), '
        'settings=ExecutionSettings(mpi_buffer_bytes=1000, double_buffering=True, '
        'flush_interval=0.005), selector=None)'
    ),
    "PointSpec": (
        "PointSpec(key=('k', 1), query='select 1;', payload_bytes=100, settings=None, "
        'selector=None, env_config=None)'
    ),
    "PsetRoundRobinSpec": "PsetRoundRobinSpec(cluster='bg')",
    "QueryGraph": (
        "QueryGraph(sps={'a': SPDef(sp_id='a', cluster='bg', plan=None, allocation=None, "
        'span=None)}, root_plan=None)'
    ),
    "QueryOutcome": (
        "QueryOutcome(label='q', report=ExecutionReport(result=[3], duration=0.5, "
        "rp_placements={'a': 'bg:1'}, bytes_sent={'a': 100}, stopped=False, rp_statistics={}), "
        'payload_bytes=100, total_duration=None, migrations=[])'
    ),
    "RPStatistics": (
        "RPStatistics(rp_id='a', node_id='bg:1', operators=(OperatorStats(name='count', "
        "objects_in=3, objects_out=1),), received=(), sent=(StreamStats(stream_id='s', "
        'bytes=1000, buffers=2),), cpu_busy_time=0.25)'
    ),
    "ResourceCost": (
        "ResourceCost(resource='cpu', service=0.1, queue_wait=0.0, hops=3, critical_votes=1, "
        "stages=('send',), streams=('s',))"
    ),
    "SPDef": (
        "SPDef(sp_id='a', cluster='bg', plan=OpSpec(name='count', args=(), children=(), "
        'producer=None), allocation=None, span=Span(line=1, column=2))'
    ),
    "SPHandle": "SPHandle(sp_id='a@1')",
    "SPVHandle": "SPVHandle(handles=(SPHandle(sp_id='a@1'),))",
    "ScaleResult": (
        'ScaleResult(shape=(4, 4, 2), mqs_queries=8, mqs_events=100, mqs_mbps=12.5, '
        'route_entries=30, route_memo_bytes=4096)'
    ),
    "SelectQuery": (
        "SelectQuery(select=Var(name='a'), decls=(Decl(name='a', type_name='sp', "
        'is_bag=False),), conditions=())'
    ),
    "SetExpr": "SetExpr(items=(Var(name='a'), Literal(value='b')))",
    "Span": 'Span(line=1, column=2)',
    "StageCost": "StageCost(stage='send', service=0.1, queue_wait=0.0, hops=3)",
    "StreamLatency": "StreamLatency(stream_id='s', flows=3, mean=1.0, p50=1.0, p95=1.5, p99=2.0)",
    "StreamScale": (
        "StreamScale(name='smoke', lr_vehicles=1, lr_segments=2, lr_ticks=3, lr_window=4, "
        'sig_count=5, sig_points=6, grep_files=7)'
    ),
    "StreamStats": "StreamStats(stream_id='s', bytes=1000, buffers=2)",
    "SweepResult": 'SweepResult(sweep=None, points={})',
    "SweepTask": (
        "SweepTask(point_key=('k', 1), seed=0, query='select 1;', payload_bytes=100, "
        'settings=None, env_config=EnvironmentConfig(bluegene=BlueGeneConfig(torus_shape=(4, 4, '
        '2), pset_size=8), backend_nodes=4, frontend_nodes=2, '
        'params=NetworkParams(torus=TorusParams(link_rate=175000000.0, packet_bytes=1024, '
        'hop_latency=5e-07, injection_overhead=1.5e-06, receive_overhead=1.5e-06, '
        'forward_overhead=1e-06, source_switch_penalty=4e-05, cache_knee_bytes=1000, '
        'cache_penalty=4.0, stream_window=2, receive_fraction=0.62), '
        'cpu=CpuCostParams(marshal_rate=175000000.0, demarshal_rate=175000000.0, '
        'generate_rate=1400000000.0, per_buffer_overhead=4e-06, per_object_overhead=1e-06, '
        'double_buffer_sync_overhead=7.5e-06), ethernet=EthernetParams(nic_rate=125000000.0, '
        'uplink_rate=125000000.0, switch_latency=2e-05), tcp=TcpParams(header_overhead=0.05, '
        'segment_bytes=65536, per_segment_overhead=8e-06, connection_setup=0.0005, '
        'window_segments=4), io_node=IONodeParams(proxy_rate=106250000.0, '
        'per_buffer_overhead=1.2e-05, peer_coordination=0.35, connection_sharing_penalty=1.8, '
        'uplink_host_coordination=0.08, compute_receive_rate=32000000.0, tree_rate=350000000.0), '
        "jitter=0.01), seed=0), observe='none', selector=None, plan=None)"
    ),
    "SyntheticArray": 'SyntheticArray(nbytes=1000, sequence=2)',
    "TaggedObject": "TaggedObject(tag='t', sequence=1, payload='x')",
    "TaskOutcome": (
        "TaskOutcome(point_key=('k', 1), seed=0, report=ExecutionReport(result=[3], "
        "duration=0.5, rp_placements={'a': 'bg:1'}, bytes_sent={'a': 100}, stopped=False, "
        'rp_statistics={}), flow_records=[], observed=False)'
    ),
    "TcpParams": (
        'TcpParams(header_overhead=0.05, segment_bytes=65536, per_segment_overhead=8e-06, '
        'connection_setup=0.0005, window_segments=4)'
    ),
    "TopologySnapshot": (
        "TopologySnapshot(topology=(1,), cursors=(('bg', 0),), node_status=(('bg', ((0, "
        'False),)),), io_status=((0, False),))'
    ),
    "TorusParams": (
        'TorusParams(link_rate=175000000.0, packet_bytes=1024, hop_latency=5e-07, '
        'injection_overhead=1.5e-06, receive_overhead=1.5e-06, forward_overhead=1e-06, '
        'source_switch_penalty=4e-05, cache_knee_bytes=1000, cache_penalty=4.0, stream_window=2, '
        'receive_fraction=0.62)'
    ),
    "UrrSpec": "UrrSpec(cluster='be')",
    "Var": "Var(name='a')",
    "WindowSample": (
        'WindowSample(index=0, start=0.0, end=0.1, events=10, flows_completed=2, '
        "bytes_delivered=200, in_flight=1, throughput_mbps=0.016, latency={'p50': 1.0}, "
        'utilization={}, queues={}, stream_bytes={}, sp_bytes={})'
    ),
    "WireBuffer": (
        "WireBuffer(buffer_id=3, stream_id='s', source='bg:1', nbytes=1000, "
        'fragments=(Fragment(object_id=7, index=0, total=2, nbytes=500, payload=None),), '
        'eos=False)'
    ),
    "_Entry": '_Entry(deployment=None, payload_bytes=100, plan=None, replacements=0)',
}

CLASSES = sorted(CASES, key=lambda cls: cls.__qualname__)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__qualname__)
def test_records_compare_by_type_and_value(cls):
    record, twin = CASES[cls](), CASES[cls]()
    assert record == twin and not record != twin
    subclass = type("Twin", (cls,), {"__slots__": ()})
    impostor = object.__new__(subclass)
    impostor.__setstate__(record.__getstate__())
    assert record != impostor and impostor != record
    assert record != object()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__qualname__)
def test_frozen_records_hash_by_value_and_mutable_ones_do_not_hash(cls):
    record = CASES[cls]()
    if cls in FROZEN and cls not in UNHASHABLE_FIELDS:
        assert hash(record) == hash(CASES[cls]())
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__qualname__)
def test_frozen_records_reject_assignment(cls):
    record = CASES[cls]()
    name = cls.__slots__[0] if cls.__slots__ else record._fields[0]
    if cls in FROZEN:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    else:
        value = getattr(record, name)
        setattr(record, name, value)
        assert record == CASES[cls]()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__qualname__)
def test_repr_is_the_dataclass_text(cls):
    assert repr(CASES[cls]()) == REPRS[cls.__qualname__]


@pytest.mark.parametrize("protocol", [2, 3, 4, 5])
@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__qualname__)
def test_pickle_round_trips(cls, protocol):
    record = CASES[cls]()
    copied = pickle.loads(pickle.dumps(record, protocol))
    assert type(copied) is cls and repr(copied) == repr(record)
    assert copied == record


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__qualname__)
def test_copy_and_replace(cls):
    record = CASES[cls]()
    assert copy.copy(record) == record == copy.deepcopy(record)
    assert record.replace() == record


def test_a_call_site_span_is_no_part_of_the_value():
    assert FuncCall("f", (), Span(1, 1)) == FuncCall("f", (), Span(9, 9))
    assert hash(FuncCall("f", (), Span(1, 1))) == hash(FuncCall("f", (), None))
    assert repr(FuncCall("f", (), Span(1, 1))) == "FuncCall(name='f', args=())"


def test_node_occupancy_is_compared_but_not_shown():
    busy, idle = CASES[Node](), CASES[Node]().replace(running_processes=0, failed=False)
    assert busy != idle and repr(busy) == repr(idle)
    assert "running_processes" not in repr(busy) and "failed" not in repr(busy)


def test_a_task_outcome_leaves_its_hub_behind():
    hub = object()
    outcome = TaskOutcome(("k", 1), 0, REPORT, _hub=hub)
    assert outcome == CASES[TaskOutcome]() and "_hub" not in repr(outcome)
    assert pickle.loads(pickle.dumps(outcome))._hub is None
    assert outcome._hub is hub
