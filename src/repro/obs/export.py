"""Exporters: Chrome ``trace_event`` JSON, JSON-lines, and text summaries.

Five consumers are served:

* ``chrome://tracing`` / https://ui.perfetto.dev — :func:`chrome_trace`
  turns tracer records into the Trace Event Format (one *process* per
  traced simulation run, one *thread* per track, resource holds as complete
  ``X`` events, store levels as ``C`` counter series).  When flow recorders
  are supplied too, every completed wire buffer becomes a lane of per-hop
  ``X`` slices on a ``flow:<stream>`` thread plus ``s``/``t``/``f`` flow
  arrows keyed by the flow id, so the causal chain sender -> torus ->
  ingress -> receiver is a clickable arrow path in the viewer;
* log processing — :func:`write_trace_jsonl` dumps raw records one JSON
  object per line, and :func:`write_timeseries_jsonl` streams the live
  sampler's closed windows plus health events the same way;
* scrapers — :func:`prometheus_exposition` renders a point-in-time text
  exposition (``# TYPE`` + ``name{label="value"} sample`` lines) of the
  metric registry and the run's flow-latency percentiles;
* humans — :func:`utilization_summary` prints the busiest resources, store
  levels, and counters of one instrumented run as plain text, and
  :func:`live_table` renders the per-window view ``repro top`` shows;
* the command line — :func:`export_observations` writes whichever of the
  above the ``--trace`` / ``--metrics-out`` / ``--bottlenecks`` flags ask for.
"""

from __future__ import annotations

import json
from typing import IO, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.flow import NullFlowRecorder
from repro.obs.health import utilization_leader
from repro.obs.instrument import Instrumentation
from repro.obs.live import NullLiveSampler, WindowSample
from repro.obs.profile import profile
from repro.obs.tracer import NullTracer, TraceRecord
from repro.util.stats import latency_summary

#: Simulated seconds -> trace microseconds (the unit Chrome traces use).
_MICROS = 1e6

#: Thread id of a trace's first flow track (one thread per stream edge).
_FLOW_TID_BASE = 1000

#: Rows each ranked section of :func:`utilization_summary` keeps.
_SUMMARY_ROWS = 20


def trace_record_dict(record: TraceRecord) -> dict:
    """A JSON-ready dict of one raw trace record."""
    out = {
        "ts": record.ts,
        "kind": record.kind,
        "track": record.track,
        "name": record.name,
    }
    if record.ident is not None:
        out["id"] = record.ident
    if record.args is not None:
        out["args"] = record.args
    return out


def write_trace_jsonl(target: Union[str, IO[str]], tracer: NullTracer) -> int:
    """Write raw records as JSON-lines; returns the number of lines."""
    def _dump(fh: IO[str]) -> int:
        count = 0
        for record in tracer:
            fh.write(json.dumps(trace_record_dict(record)) + "\n")
            count += 1
        return count

    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            return _dump(fh)
    return _dump(target)


def flow_trace_events(pid: int, recorder: NullFlowRecorder) -> List[dict]:
    """Trace events for completed flows: hop slices plus flow arrows.

    Each stream edge gets one thread (``flow:<stream>``); every completed
    buffer contributes one ``X`` slice per hop (with the latency components
    in ``args``) and a chain of flow-arrow events (``ph`` ``s``/``t``/``f``)
    sharing the flow id, which the trace viewers render as arrows from hop
    to hop.  A disabled recorder yields no events.
    """
    events: List[dict] = []
    tids: Dict[str, int] = {}
    for record in recorder.completed:
        track = f"flow:{record.stream_id}"
        if track not in tids:
            tids[track] = _FLOW_TID_BASE + len(tids)
            events.append({
                "ph": "M", "pid": pid, "tid": tids[track],
                "name": "thread_name", "args": {"name": track},
            })
        tid = tids[track]
        hops = record.hops
        for position, hop in enumerate(hops):
            events.append({
                "ph": "X", "pid": pid, "tid": tid,
                "name": hop.stage, "cat": "flow",
                "ts": hop.start * _MICROS,
                "dur": hop.duration * _MICROS,
                "args": {
                    "flow": record.flow_id,
                    "buffer": record.buffer_id,
                    "nbytes": record.nbytes,
                    "resource": hop.resource,
                    "serialize_s": hop.serialize,
                    "queue_wait_s": hop.queue_wait,
                    "wire_s": hop.wire,
                    "processing_s": hop.processing,
                },
            })
            arrow = {
                "pid": pid, "tid": tid, "cat": "flow",
                "name": f"flow#{record.flow_id}", "id": record.flow_id,
            }
            if position == 0:
                arrow.update({"ph": "s", "ts": hop.start * _MICROS})
            elif position == len(hops) - 1:
                arrow.update({"ph": "f", "bp": "e", "ts": hop.end * _MICROS})
            else:
                arrow.update({"ph": "t", "ts": hop.start * _MICROS})
            events.append(arrow)
    return events


def chrome_trace(
    sections: Sequence[Tuple[str, NullTracer]],
    flow_sections: Sequence[Tuple[str, NullFlowRecorder]] = (),
) -> dict:
    """Convert tracers into one Chrome Trace Event Format document.

    Args:
        sections: ``(label, tracer)`` pairs; each pair becomes one trace
            *process* (pid) named ``label``, so several simulation runs
            (e.g. the repeats of a measurement) can share a timeline.
        flow_sections: ``(label, flow recorder)`` pairs; each becomes an
            additional trace process carrying per-flow hop slices and
            flow arrows (see :func:`flow_trace_events`).

    Returns:
        The trace document (``{"traceEvents": [...], ...}``); serialize
        with ``json.dump`` or use :func:`write_chrome_trace`.
    """
    events: List[dict] = []
    for pid, (label, tracer) in enumerate(sections, start=1):
        events.append({
            "ph": "M", "pid": pid, "tid": 0,
            "name": "process_name", "args": {"name": label},
        })
        tids: Dict[str, int] = {}
        open_spans: Dict[Tuple[str, Optional[int]], TraceRecord] = {}
        last_ts = 0.0

        def tid_of(track: str) -> int:
            if track not in tids:
                tids[track] = len(tids) + 1
                events.append({
                    "ph": "M", "pid": pid, "tid": tids[track],
                    "name": "thread_name", "args": {"name": track},
                })
            return tids[track]

        for record in tracer:
            last_ts = max(last_ts, record.ts)
            tid = tid_of(record.track)
            if record.kind == "span_begin":
                open_spans[(record.track, record.ident)] = record
            elif record.kind == "span_end":
                begin = open_spans.pop((record.track, record.ident), None)
                start = begin.ts if begin is not None else record.ts
                event = {
                    "ph": "X", "pid": pid, "tid": tid,
                    "name": record.name, "cat": record.track.split(":", 1)[0],
                    "ts": start * _MICROS,
                    "dur": (record.ts - start) * _MICROS,
                }
                args = record.args if record.args is not None else (
                    begin.args if begin is not None else None
                )
                if args is not None:
                    event["args"] = args
                events.append(event)
            elif record.kind == "instant":
                event = {
                    "ph": "i", "pid": pid, "tid": tid, "s": "t",
                    "name": record.name, "cat": record.track.split(":", 1)[0],
                    "ts": record.ts * _MICROS,
                }
                if record.args is not None:
                    event["args"] = record.args
                events.append(event)
            elif record.kind == "counter":
                events.append({
                    "ph": "C", "pid": pid, "tid": tid,
                    "name": record.track, "ts": record.ts * _MICROS,
                    "args": {record.name: record.args},
                })
        # Spans still open when the run ended (e.g. long-lived processes):
        # close them at the last observed timestamp so they stay visible.
        for (track, _ident), begin in open_spans.items():
            events.append({
                "ph": "X", "pid": pid, "tid": tid_of(track),
                "name": begin.name, "cat": track.split(":", 1)[0],
                "ts": begin.ts * _MICROS,
                "dur": (last_ts - begin.ts) * _MICROS,
                "args": {"unfinished": True},
            })
    next_pid = len(sections) + 1
    for pid, (label, recorder) in enumerate(flow_sections, start=next_pid):
        events.append({
            "ph": "M", "pid": pid, "tid": 0,
            "name": "process_name", "args": {"name": f"flows:{label}"},
        })
        events.extend(flow_trace_events(pid, recorder))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    target: Union[str, IO[str]],
    sections: Sequence[Tuple[str, NullTracer]],
    flow_sections: Sequence[Tuple[str, NullFlowRecorder]] = (),
) -> dict:
    """Serialize :func:`chrome_trace` of ``sections`` to a file; returns it."""
    document = chrome_trace(sections, flow_sections)
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
    else:
        json.dump(document, target)
    return document


def utilization_summary(obs: Instrumentation) -> str:
    """Plain-text report of one instrumented run.

    Resources are ranked by busy time (simulated seconds with at least one
    slot held), stores by time-weighted mean level; counters follow in
    name order.  Each ranked section keeps its :data:`_SUMMARY_ROWS` first
    rows.
    """
    now = obs.now
    lines = [f"observability summary @ t={now:.6f}s simulated"]

    resources = []
    for series_name in obs.metrics.series:
        if series_name.startswith("resource.busy["):
            name = series_name[len("resource.busy["):-1]
            resources.append((obs.resource_busy_time(name), name))
    resources.sort(key=lambda pair: (-pair[0], pair[1]))
    if resources:
        lines.append("resources (by busy time):")
        for busy, name in resources[:_SUMMARY_ROWS]:
            share = 100.0 * busy / now if now > 0 else 0.0
            occupancy = obs.resource_occupancy(name)
            acquires = obs.metrics.counters.get(f"resource.acquires[{name}]")
            queue = obs.metrics.series.get(f"resource.queue[{name}]")
            lines.append(
                f"  {name:<28} busy {busy:.6f}s ({share:5.1f}%)"
                f"  occ {occupancy:.6f} slot*s"
                f"  acq {int(acquires.value) if acquires else 0}"
                f"  maxq {int(queue.maximum) if queue else 0}"
            )
        if len(resources) > _SUMMARY_ROWS:
            lines.append(f"  ... {len(resources) - _SUMMARY_ROWS} more resources")

    stores = []
    for series_name, series in obs.metrics.series.items():
        if series_name.startswith("store.level["):
            series.finalize(now)
            name = series_name[len("store.level["):-1]
            stores.append((series.mean(now), series.maximum, name))
    stores.sort(key=lambda triple: (-triple[0], triple[2]))
    if stores:
        lines.append("stores (by mean level):")
        for mean, maximum, name in stores[:_SUMMARY_ROWS]:
            lines.append(f"  {name:<28} mean {mean:8.3f}  max {int(maximum)}")
        if len(stores) > _SUMMARY_ROWS:
            lines.append(f"  ... {len(stores) - _SUMMARY_ROWS} more stores")

    gauges = [(name, g) for name, g in sorted(obs.metrics.gauges.items())]
    if gauges:
        lines.append("gauges (current / peak):")
        for name, gauge in gauges[:_SUMMARY_ROWS]:
            lines.append(f"  {name:<40} {gauge.value:g} / {gauge.peak:g}")

    counters = [
        (name, counter.value)
        for name, counter in sorted(obs.metrics.counters.items())
        if not name.startswith(("resource.acquires[", "resource.waits[",
                                "resource.withdrawals["))
    ]
    if counters:
        lines.append("counters:")
        for name, value in counters:
            lines.append(f"  {name:<40} {value:g}")
    return "\n".join(lines)


def export_observations(
    sections: Sequence[Tuple[str, Instrumentation]],
    trace: Optional[str] = None,
    metrics_out: Optional[str] = None,
    bottlenecks: Optional[str] = None,
) -> None:
    """Write labelled run hubs to the paths of the ``--trace`` /
    ``--metrics-out`` / ``--bottlenecks`` flags (:mod:`repro.cli_flags`),
    one printed line per file; ``-`` prints the text itself.  Callers: the
    figure runner (:mod:`repro.core.experiments.cli`) and ``query``."""
    if trace:
        if trace.endswith(".jsonl"):
            with open(trace, "w", encoding="utf-8") as fh:
                lines = 0
                for label, obs in sections:
                    fh.write('{"section": %s}\n' % json.dumps(label))
                    lines += write_trace_jsonl(fh, obs.tracer)
            print(f"trace: {lines} records -> {trace} (JSON-lines)")
        else:
            document = write_chrome_trace(
                trace,
                [(label, obs.tracer) for label, obs in sections],
                [
                    (label, obs.flows)
                    for label, obs in sections
                    if obs.flows.enabled and obs.flows.completed
                ],
            )
            print(
                f"trace: {len(document['traceEvents'])} events -> {trace} "
                "(open at chrome://tracing or ui.perfetto.dev)"
            )
    if metrics_out:
        text = "\n\n".join(
            f"== {label} ==\n{utilization_summary(obs)}" for label, obs in sections
        )
        if metrics_out == "-":
            print(text)
        else:
            with open(metrics_out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"metrics: {len(sections)} run summaries -> {metrics_out}")
    if bottlenecks:
        report = profile([obs for _label, obs in sections])
        if bottlenecks == "-":
            print(report.format_text())
            return
        if bottlenecks.endswith(".json"):
            report.write_json(bottlenecks)
        else:
            with open(bottlenecks, "w", encoding="utf-8") as fh:
                fh.write(report.format_text() + "\n")
        print(f"bottlenecks: {report.flows} flows profiled -> {bottlenecks}")


# ----------------------------------------------------------------------
# Live telemetry exporters
# ----------------------------------------------------------------------

def write_timeseries_jsonl(target: Union[str, IO[str]],
                           sampler: NullLiveSampler,
                           label: str = "") -> int:
    """Stream a live sampler's windows + health events as JSON-lines.

    One ``meta`` line (window length, counts, culprit), one ``window``
    line per closed :class:`~repro.obs.live.WindowSample`, one ``health``
    line per emitted event.  Call ``sampler.finalize()`` first if the
    trailing partial window should be included.  Returns the line count.
    """
    def _dump(fh: IO[str]) -> int:
        count = 1
        meta = {
            "kind": "meta",
            "label": label,
            "window_s": sampler.window,
            "windows": len(sampler.windows),
            "health_events": len(sampler.health_events),
        }
        culprit = getattr(sampler, "culprit", None)
        if culprit is not None:
            meta["culprit"] = culprit
        fh.write(json.dumps(meta) + "\n")
        for window in sampler.windows:
            fh.write(json.dumps({"kind": "window", **window.to_dict()}) + "\n")
            count += 1
        for event in sampler.health_events:
            payload = event.to_dict()
            # the record kind is "health"; the event's own kind
            # (saturated/degraded/recovered) moves to "event"
            payload["event"] = payload.pop("kind")
            fh.write(json.dumps({"kind": "health", **payload}) + "\n")
            count += 1
        return count

    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            return _dump(fh)
    return _dump(target)


def _prom_ident(text: str) -> str:
    """Sanitize a metric family name into a Prometheus identifier."""
    ident = "".join(ch if ch.isalnum() else "_" for ch in text)
    while "__" in ident:
        ident = ident.replace("__", "_")
    return ident.strip("_")


def _prom_label(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _prom_split(name: str) -> Tuple[str, Optional[str]]:
    """Split the registry's ``family[key]`` convention into (family, key)."""
    if name.endswith("]") and "[" in name:
        family, _, key = name.partition("[")
        return family, key[:-1]
    return name, None


def prometheus_exposition(obs: Instrumentation) -> str:
    """A Prometheus text-format snapshot of one instrumented run.

    Counters become ``repro_<family>_total``, gauges and time-weighted
    means/maxima become gauges; the registry's ``family[key]`` names map
    to an ``entity="key"`` label.  When a live sampler is attached, the
    :func:`~repro.util.stats.latency_summary` of the recorder's completed
    data flows is exposed as a summary
    (``repro_flow_latency_seconds{quantile="..."}``) along with window
    and health-event totals.  Families and entities are emitted in sorted
    order so the exposition is deterministic for a fixed seed.
    """
    snapshot = obs.snapshot()
    lines: List[str] = [
        f"# repro metrics exposition @ t={snapshot.now:.9f} simulated seconds"
    ]

    def _emit(kind: str, samples: Dict[str, float], suffix: str = "") -> None:
        families: Dict[str, Dict[Optional[str], float]] = {}
        for name in sorted(samples):
            family, key = _prom_split(name)
            families.setdefault(family, {})[key] = samples[name]
        for family in sorted(families):
            metric = f"repro_{_prom_ident(family)}{suffix}"
            lines.append(f"# TYPE {metric} {kind}")
            for key in sorted(families[family], key=lambda k: (k is None, k)):
                value = families[family][key]
                label = (
                    f'{{entity="{_prom_label(key)}"}}' if key is not None else ""
                )
                lines.append(f"{metric}{label} {value:.9g}")

    _emit("counter", snapshot.counters, suffix="_total")
    _emit("gauge", snapshot.gauges)
    _emit("gauge", {
        f"{name}.mean": stats["mean"]
        for name, stats in snapshot.time_weighted.items()
    })

    live = obs.live
    if live.enabled:
        latencies = obs.flows.latencies()
        if latencies:
            summary = latency_summary(latencies)
            metric = "repro_flow_latency_seconds"
            lines.append(f"# TYPE {metric} summary")
            for quantile, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
                lines.append(f'{metric}{{quantile="{quantile}"}} {summary[key]:.9g}')
            lines.append(f"{metric}_sum {sum(latencies):.9g}")
            lines.append(f"{metric}_count {summary['n']}")
        lines.append("# TYPE repro_live_windows_total counter")
        lines.append(f"repro_live_windows_total {len(live.windows)}")
        lines.append("# TYPE repro_health_events_total counter")
        kinds: Dict[str, int] = {}
        for event in live.health_events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        for kind in sorted(kinds):
            lines.append(
                f'repro_health_events_total{{kind="{kind}"}} {kinds[kind]}'
            )
    return "\n".join(lines) + "\n"


#: Column header of the ``repro top`` window table.
LIVE_HEADER = (
    f"{'win':>4} {'t[ms)':>12} {'events':>7} {'flows':>6} {'Mbps':>9} "
    f"{'p50ms':>8} {'p95ms':>8} {'p99ms':>8}  busiest resource"
)


def live_row(window: WindowSample) -> str:
    """One formatted window row (shared by :func:`live_table` and the
    streaming ``repro top`` output)."""
    top_name, top_util = utilization_leader(window.utilization)
    busiest = (
        f"{top_name} {100.0 * top_util:5.1f}%" if top_name is not None else "-"
    )
    latency = window.latency
    return (
        f"{window.index:>4} {window.end * 1e3:>12.3f} {window.events:>7} "
        f"{window.flows_completed:>6} {window.throughput_mbps:>9.2f} "
        f"{latency.get('p50', 0.0) * 1e3:>8.3f} "
        f"{latency.get('p95', 0.0) * 1e3:>8.3f} "
        f"{latency.get('p99', 0.0) * 1e3:>8.3f}  {busiest}"
    )


def live_footer(sampler: NullLiveSampler) -> str:
    """The cumulative-latency / culprit / health-event summary lines."""
    lines: List[str] = []
    summary = latency_summary(sampler.latencies())
    if summary["n"]:
        lines.append(
            f"cumulative: {summary['n']} flows, latency p50 "
            f"{summary['p50'] * 1e3:.3f} ms / p95 {summary['p95'] * 1e3:.3f} ms / "
            f"p99 {summary['p99'] * 1e3:.3f} ms"
        )
    culprit = getattr(sampler, "culprit", None)
    if culprit is not None:
        lines.append(f"bottleneck: {culprit}")
    events = sampler.health_events
    if events:
        lines.append(f"health events ({len(events)}):")
        for event in events:
            lines.append(f"  {event}")
    return "\n".join(lines)


def live_table(sampler: NullLiveSampler) -> str:
    """The per-window table ``python -m repro top`` renders.

    One row per closed window: event and flow counts, delivered
    throughput, window latency percentiles (ms), and the busiest resource
    with its windowed utilization.  A footer reports the cumulative latency percentiles and the
    detector's current culprit + health-event tally.
    """
    windows = sampler.windows
    lines = [LIVE_HEADER, "-" * len(LIVE_HEADER)]
    for window in windows:
        lines.append(live_row(window))
    if not windows:
        lines.append("  (no closed windows)")
    footer = live_footer(sampler)
    if footer:
        lines.append(footer)
    return "\n".join(lines)
