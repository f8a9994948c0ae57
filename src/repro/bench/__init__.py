"""Numbered-query-stream benchmark harness with fault injection.

TPC-H-style power/throughput modes over the repro workloads
(:mod:`repro.bench.query_stream`, :mod:`repro.bench.benchmark`) and a
deterministic mid-run fault-injection layer with recovery metrics
(:mod:`repro.bench.faults`): a
:class:`~repro.core.multiquery.MultiQuerySession` plus a
:class:`~repro.bench.faults.FaultSchedule`, replanning victims through
``session.replace``.  ``python -m repro bench --mode ...`` is the
CLI front end; the metric mappings gate through the BENCH v2 machinery in
:mod:`repro.core.bench`.
"""

from repro.bench.benchmark import (
    BenchReport,
    run_fault_benchmark,
    run_power_mode,
    run_throughput_mode,
)
from repro.bench.faults import (
    DEFAULT_DEGRADE_FACTOR,
    SCENARIOS,
    FaultEvent,
    FaultOutcome,
    FaultSchedule,
    FaultTask,
    FaultedRunResult,
    run_fault_task,
    run_faulted_session,
)
from repro.bench.query_stream import (
    DEFAULT_SCALE,
    QUERY_KINDS,
    SMOKE_SCALE,
    BenchQuery,
    StreamScale,
    build_query,
    grep_line_count,
    query_order,
    registered,
)

__all__ = [
    "BenchQuery",
    "BenchReport",
    "DEFAULT_DEGRADE_FACTOR",
    "DEFAULT_SCALE",
    "FaultEvent",
    "FaultOutcome",
    "FaultSchedule",
    "FaultTask",
    "FaultedRunResult",
    "QUERY_KINDS",
    "SCENARIOS",
    "SMOKE_SCALE",
    "StreamScale",
    "build_query",
    "grep_line_count",
    "query_order",
    "registered",
    "run_fault_benchmark",
    "run_fault_task",
    "run_faulted_session",
    "run_power_mode",
    "run_throughput_mode",
]
