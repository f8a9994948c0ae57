"""Golden output identity of the observability plane.

Recorded on the commit *before* the hooks were rewritten to bound
instruments (PR 12), and required to pass unmodified after it: for one
fig6, one fig8-sequential and the fig15 Q5 n=4 point, under
``observe="flows"`` (``Instrumentation(tracer=NULL_TRACER)``) and under
``observe="trace"`` (a full ``Instrumentation()``, the golden's "full"
mode), the digest of

* the ``MetricsSnapshot`` of the report — every key in insertion order,
  every float exact (``float.hex``),
* every completed ``FlowRecord`` with its hops,
* the text, Prometheus and JSON-lines exporter output

must equal ``golden_obs.json``.  Re-record (only when an output change is
intended and reviewed) with ``python tests/obs/test_golden_equivalence.py``.

PR 13 re-recorded the file once: the kernel now delivers an uncontended
grant synchronously instead of scheduling it, so ``sim.events_processed``
fell — and nothing else may ever tell the two kernels apart, which
``test_only_the_event_count_tells_the_kernels_apart`` keeps checking
against the same code under a scheduler that queues every grant (that run
reproduced the PR 12 file digest for digest before the re-record).

Two host-dependent values are normalised: the module-global wire-buffer id
counter is restarted for each run, and the ``id()``-derived span idents of
the trace records are dropped.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.core.bench import bench_points
from repro.core.parallel import SweepTask, run_sweep_task
from repro.net import message
from repro.obs.export import (
    prometheus_exposition,
    trace_record_dict,
    utilization_summary,
)
from repro.sim import scheduler_override
from tests.sim.test_eager_grants import NeverQuiescent

GOLDEN_PATH = Path(__file__).with_name("golden_obs.json")

POINTS = ("fig6[B=1000,double]", "fig8[B=100000,seq,double]", "fig15[Q5,n=4]")
#: Golden mode name (the key suffix in ``golden_obs.json``) -> observe level.
MODES = {"flows": "flows", "full": "trace"}
SEED = 0


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
        "snapshot": _snapshot_lines(outcome.report.metrics),
        "flows": _flow_lines(obs.flows.completed),
        "text": utilization_summary(obs),
        "prometheus": prometheus_exposition(obs),
        "jsonl": _trace_lines(obs.tracer),
    }


def digest(artifacts: Dict[str, str]) -> Dict[str, Dict[str, object]]:
    return {
        kind: {
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "lines": text.count("\n") + 1 if text else 0,
        }
        for kind, text in artifacts.items()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", POINTS)
def test_outputs_match_the_recorded_golden(golden, name, mode):
    recorded = golden[f"{name}|{mode}"]
    measured = digest(observe_point(name, mode))
    assert list(measured) == list(recorded)
    for kind in recorded:
        assert measured[kind] == recorded[kind], (
            f"{kind} output of {name} under {mode} instrumentation changed"
        )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", POINTS)
def test_only_the_event_count_tells_the_kernels_apart(name, mode):
    eager = observe_point(name, mode)
    with scheduler_override(NeverQuiescent):  # every grant queued, as before PR 13
        queued = observe_point(name, mode)
    for kind in ("flows", "jsonl"):
        assert eager[kind] == queued[kind], kind
    for kind in ("snapshot", "text", "prometheus"):
        pairs = zip(eager[kind].splitlines(), queued[kind].splitlines(), strict=True)
        changed = [pair for pair in pairs if pair[0] != pair[1]]
        assert len(changed) == 1 and "events_processed" in changed[0][0], (kind, changed)


def test_golden_covers_what_it_claims(golden):
    assert sorted(golden) == sorted(f"{n}|{m}" for n in POINTS for m in MODES)
    for key, kinds in golden.items():
        assert kinds["snapshot"]["lines"] > 50, key
        assert kinds["flows"]["lines"] > 100, key
        # The null tracer writes no records; the full hub writes thousands.
        assert (kinds["jsonl"]["lines"] > 1000) == key.endswith("|full"), key


if __name__ == "__main__":
    document = {
        f"{name}|{mode}": digest(observe_point(name, mode))
        for name in POINTS
        for mode in MODES
    }
    GOLDEN_PATH.write_text(json.dumps(document, indent=2) + "\n")
    print(f"recorded {len(document)} golden entries in {GOLDEN_PATH}")
