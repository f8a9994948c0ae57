"""Golden output identity of the observability plane, in two sections.

For one fig6, one fig8-sequential and the fig15 Q5 n=4 point, under
``observe="flows"`` (``Instrumentation(tracer=NULL_TRACER)``) and under
``observe="trace"`` (a full ``Instrumentation()``, the golden's "full"
mode), ``golden_obs.json`` records two digests of

* the hub's ``MetricsSnapshot`` after the run (``obs.snapshot()``) — every
  float exact (``float.hex``),
* every completed ``FlowRecord`` with its hops,
* the text, Prometheus and JSON-lines exporter output.

**physics** is what the simulation *models*: the clock, every counter,
gauge, peak and time-weighted series (byte and buffer counts, resource
acquires, waits and busy/queue integrals, store levels, flow latencies),
every flow's hop set with its times and latency components, every
resource-hold and store-level trace record.  It is digested as a multiset
— lines sorted, a flow's hops sorted — and must stay float-identical
across any kernel or carrier change (and is what the heap/calendar,
jobs=1/N and chaos-seed equivalence suites compare).  A change that moves
a physics digest changed the model.

**bookkeeping** is how the kernel got there: ``sim.events_processed``,
``sim.processes_started/finished``, the process records of the traced
JSONL, the first-use order of instruments and the order of records that
share one timestamp.  It is digested verbatim, in order, and may move — a
PR that moves it re-records (``python tests/obs/test_golden_equivalence.py``
refuses to while a physics digest differs) and states the reason here:

* PR 12 recorded the file on the commit before the bound-instrument
  rewrite; that PR passed it unmodified.
* PR 13: uncontended grants are delivered synchronously, so
  ``sim.events_processed`` fell.
* PR 16: a buffer in flight is no longer a process.  ``torus-forward``,
  ``tcp-forward`` and ``<inbox>.put`` process records are gone from the
  JSONL, ``sim.processes_*`` and ``sim.events_processed`` fell, and a
  deposit completes its depositor before the woken receiver runs: the
  ``*.deliver`` hop now precedes ``receiver.inbox`` at their shared
  timestamp, and an end-of-stream buffer keeps its ``*.deliver`` hop,
  which the receiver used to complete the flow ahead of (one or two flow
  lines more per point — the only physics lines that differ from the
  PR 15 source, where dropping them was a recording bug).
* PR 18: token pools (inbox slots, send buffers, the torus stream window)
  are born stocked (now ``TokenPool(..., stock=n)``) instead of primed with
  ``put(None)`` calls, each of which outside a dispatch was a queued
  event nobody waited on.  Only ``sim.events_processed`` fell — one line
  of the snapshot, text and Prometheus artifacts (fig6 2 606 → 2 596,
  fig8 4 084 → 4 068, fig15 1 598 → 1 554); the JSONL and flow
  bookkeeping and every physics digest are the parent's, and the script
  re-recorded without ``--physics-changed``.
* PR 36: the hub reads ``sim.events_processed`` and
  ``sim.timeouts_created`` from the kernel's own counts instead of
  counting them per event, and the registry reports them ahead of its
  first-use counters.  Only the snapshot artifact moved: those two lines
  now lead its counters.  Their values, every other line, the text,
  Prometheus, JSONL and flow artifacts and every physics digest are the
  parent's; the script re-recorded without ``--physics-changed``.
* One owner per count: the per-stream counters ``stream.bytes_sent``,
  ``stream.buffers_sent``, ``stream.bytes_received``,
  ``stream.buffers_received``, ``stream.torus_bytes`` and
  ``stream.tcp_bytes`` left the registry.  They repeated the drivers' own
  counts, which the ``rp.<rp>.{sent,recv}.{bytes,buffers}[<stream>]``
  gauges publish, and the net totals ``torus.payload_bytes`` and
  ``ethernet.ingress_bytes``.  The snapshot is the hub's after the run,
  which equalled the report's copy line for line on every entry before
  the copy went.  The deleted names' lines are the only lines that left
  the snapshot, text and Prometheus artifacts (per point 9/9/14 for fig6,
  14/14/19 for fig8, 44/44/50 for fig15); no line is new, every other
  line keeps its value and order, and the flow and JSONL digests are
  unchanged.  The model did not move, but its physics digests cover those
  lines, so the script re-recorded with ``--physics-changed``.
* A process end nobody waits on is no event, a crash reaches its query
  through the process's failure link instead of a callback on every
  process, and stop-condition supervision is a callback on the root of an
  RP whose plan can stop early instead of a ``:supervisor`` process on
  every RP with inputs.  ``sim.processes_*`` fell (fig6 14 → 12, fig8
  22 → 20, fig15 58 → 52), ``sim.events_processed`` fell (fig6
  2 596 → 2 581, fig8 4 068 → 4 046, fig15 1 554 → 1 486), and the JSONL
  lost the supervisors' process records.  The flow artifacts and every
  physics digest are the parent's; the script re-recorded without
  ``--physics-changed``.

``test_only_the_event_count_tells_the_kernels_apart`` keeps checking the
eager kernel against the same code under a scheduler that queues every
grant.

Two host-dependent values are normalised: the module-global wire-buffer id
counter is restarted for each run, and the ``id()``-derived span idents of
the trace records are dropped.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import re
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.bench.benchmark import bench_points
from repro.core.parallel import SweepTask, run_sweep_task
from repro.net import message
from repro.obs.export import (
    prometheus_exposition,
    trace_record_dict,
    utilization_summary,
)
from repro.sim import HeapScheduler, scheduler_override
from tests.sim.test_eager_grants import NeverQuiescent

GOLDEN_PATH = Path(__file__).with_name("golden_obs.json")

POINTS = ("fig6[B=1000,double]", "fig8[B=100000,seq,double]", "fig15[Q5,n=4]")
#: Golden mode name (the key suffix in ``golden_obs.json``) -> observe level.
MODES = {"flows": "flows", "full": "trace"}
SEED = 0
#: Lines that count kernel work (in any exporter's spelling), not behaviour.
BOOKKEEPING_LINE = re.compile(
    r"sim[._](events_processed|processes_started|processes_finished)|\"track\": \"process:"
)


def _hex(value: float) -> str:
    return float(value).hex()


def _snapshot_lines(snapshot) -> str:
    lines = [f"now {_hex(snapshot.now)}"]
    for section in ("counters", "gauges", "peaks"):
        for name, value in getattr(snapshot, section).items():
            lines.append(f"{section} {name} {_hex(value)}")
    for name, stats in snapshot.time_weighted.items():
        fields = " ".join(f"{key}={_hex(value)}" for key, value in stats.items())
        lines.append(f"time_weighted {name} {fields}")
    return "\n".join(lines)


def _flow_lines(records) -> str:
    lines = []
    for record in records:
        lines.append(
            f"flow {record.flow_id} {record.buffer_id} {record.stream_id} "
            f"{record.source} {record.nbytes} {_hex(record.birth)} "
            f"{record.eos} {_hex(record.delivered)}"
        )
        for hop in record.hops:
            lines.append(
                f"  hop {hop.stage} {hop.resource} "
                + " ".join(_hex(value) for value in hop[2:])
            )
    return "\n".join(lines)


def _trace_lines(tracer) -> str:
    out = io.StringIO()
    for record in tracer:
        entry = trace_record_dict(record)
        entry.pop("id", None)  # id(process) / id(request): host addresses
        out.write(json.dumps(entry) + "\n")
    return out.getvalue()


def observe_point(name: str, mode: str) -> Dict[str, str]:
    """Run one golden point; returns its artifacts as text."""
    point = next(p for p in bench_points() if p.key == name)
    message._buffer_ids = itertools.count()
    outcome = run_sweep_task(
        SweepTask(
            point_key=name, seed=SEED, query=point.query,
            payload_bytes=point.payload_bytes, settings=point.settings,
            observe=MODES[mode],
        )
    )
    obs = outcome.observation()
    return {
        "snapshot": _snapshot_lines(obs.snapshot()),
        "flows": _flow_lines(obs.flows.completed),
        "text": utilization_summary(obs),
        "prometheus": prometheus_exposition(obs),
        "jsonl": _trace_lines(obs.tracer),
    }


def physics(artifacts: Dict[str, str]) -> Dict[str, str]:
    """The order- and bookkeeping-free reading of ``artifacts``."""
    flows = []
    for line in artifacts["flows"].splitlines():
        if line.startswith("flow "):
            flows.append([line])
        else:
            flows[-1].append(line)
    modelled = {
        kind: "\n".join(sorted(
            line for line in text.splitlines() if not BOOKKEEPING_LINE.search(line)
        ))
        for kind, text in artifacts.items()
    }
    modelled["flows"] = "\n".join(
        sorted("\n".join(block[:1] + sorted(block[1:])) for block in flows)
    )
    return modelled


def digest(artifacts: Dict[str, str]) -> Dict[str, Dict[str, Dict[str, object]]]:
    def section(texts: Dict[str, str]) -> Dict[str, Dict[str, object]]:
        return {
            kind: {
                "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                "lines": text.count("\n") + 1 if text else 0,
            }
            for kind, text in texts.items()
        }

    return {"physics": section(physics(artifacts)), "bookkeeping": section(artifacts)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", POINTS)
def test_outputs_match_the_recorded_golden(golden, name, mode):
    recorded = golden[f"{name}|{mode}"]
    measured = digest(observe_point(name, mode))
    for section, verdict in (
        ("physics", "simulated physics changed"),
        ("bookkeeping", "kernel bookkeeping moved (physics held; re-record and "
                        "state the reason in this module)"),
    ):
        assert list(measured[section]) == list(recorded[section])
        for kind, expected in recorded[section].items():
            assert measured[section][kind] == expected, (
                f"{verdict}: {kind} output of {name} under {mode}"
            )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", POINTS)
def test_only_the_event_count_tells_the_kernels_apart(name, mode):
    """Only bookkeeping tells the kernels apart — and of it, only the count."""
    eager = observe_point(name, mode)
    with scheduler_override(NeverQuiescent):  # every grant queued, as before PR 13
        queued = observe_point(name, mode)
    assert physics(eager) == physics(queued)
    for kind in ("flows", "jsonl"):
        assert eager[kind] == queued[kind], kind
    for kind in ("snapshot", "text", "prometheus"):
        pairs = zip(eager[kind].splitlines(), queued[kind].splitlines(), strict=True)
        changed = [pair for pair in pairs if pair[0] != pair[1]]
        assert len(changed) == 1 and "events_processed" in changed[0][0], (kind, changed)


@pytest.mark.parametrize("name", POINTS)
def test_nothing_recorded_depends_on_the_scheduler_backend(golden, name):
    with scheduler_override(HeapScheduler):
        measured = digest(observe_point(name, "flows"))
    assert measured == golden[f"{name}|flows"]


def test_golden_covers_what_it_claims(golden):
    assert sorted(golden) == sorted(f"{n}|{m}" for n in POINTS for m in MODES)
    for key, sections in golden.items():
        for section, kinds in sections.items():
            assert kinds["snapshot"]["lines"] > 50, key
            assert kinds["flows"]["lines"] > 100, key
            # The null tracer writes no records; the full hub writes thousands.
            assert (kinds["jsonl"]["lines"] > 1000) == key.endswith("|full"), (key, section)
        physics_, bookkeeping = sections["physics"], sections["bookkeeping"]
        moved = [kind for kind in physics_ if physics_[kind] != bookkeeping[kind]]
        # Bookkeeping lines exist in every artifact but the flow records,
        # whose two sections differ only in order.
        assert set(moved) >= {"snapshot", "text", "prometheus"}, key
        assert physics_["flows"]["lines"] == bookkeeping["flows"]["lines"]


if __name__ == "__main__":
    recorded = json.loads(GOLDEN_PATH.read_text())
    document = {
        f"{name}|{mode}": digest(observe_point(name, mode))
        for name in POINTS
        for mode in MODES
    }
    moved = [
        f"{key}: {kind}"
        for key, sections in document.items()
        for kind, value in sections["physics"].items()
        if recorded.get(key, {}).get("physics", {}).get(kind, value) != value
    ]
    if moved and "--physics-changed" not in sys.argv:
        raise SystemExit(
            "physics digests differ from the recorded file — the model changed:\n  "
            + "\n  ".join(moved)
            + "\nfix it, or pass --physics-changed and state the reason in this module"
        )
    GOLDEN_PATH.write_text(json.dumps(document, indent=2) + "\n")
    print(f"recorded {len(document)} golden entries in {GOLDEN_PATH}")
