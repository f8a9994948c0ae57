"""The BENCH JSON document and its baseline comparison.

Every mode of the harness (:mod:`repro.bench.benchmark`) reports a flat
``name -> value`` metric mapping; this module writes it as a BENCH v2
document, reads one back and compares a run against a committed baseline.

It also diffs two documents of the host-time ledger
(:func:`diff_ledger`, ``python -m repro bench diff OLD NEW``): there the
direction and bound of a metric come from ``BENCHMARK.json``.

The name's head (:func:`figure_of_metric`) is the suite that produced a
metric — a gate figure, or ``power`` / ``throughput`` / ``fault`` — so one
baseline file holds every suite and a run is compared against its own
suites' keys.

Every metric is simulated and seeded, so on one code revision the
recorded document is byte-identical run to run, and the comparison is an
equality, key for key: any drift against the committed
``BENCH_baseline.json`` is a code change, not noise.  Host time
is not measured here: the calibrated ledger (``benchmarks/ledger``,
``BENCHMARK.json``) owns it.

Beside the metrics, a gate point or power-mode query records a
:func:`physics_digest` of every buffer it delivered: equal metrics do not
mean equal buffer timings, equal digests do.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.obs.flow import FlowRecord

#: Schema version of the BENCH JSON document.
BENCH_FORMAT_VERSION = 2

#: Figure names run_bench() can produce: the sweep subsets plus the
#: 4096-node scale and adaptive-runtime figures.
BENCH_FIGURES = ("fig6", "fig8", "fig15", "scale", "adaptive")


# ----------------------------------------------------------------------
# BENCH JSON round trip
# ----------------------------------------------------------------------
def physics_digest(runs: Iterable[Tuple[Iterable["FlowRecord"], Sequence[object]]]) -> str:
    """sha256 over what runs of one point delivered, as they would be seen
    from outside the simulator.

    ``runs`` holds one ``(completed flow records, query results)`` pair per
    run, in seed order.  Each delivered buffer contributes its stream, its
    sequence number within the stream (the order the sender emitted it),
    its byte count and its delivery time (``float.hex``); then come the
    results.  Nothing of how the kernel got there enters: no event, flow
    or buffer id, and no order among streams or same-instant deliveries.
    """
    import hashlib

    lines: List[str] = []
    for run, (records, results) in enumerate(runs):
        streams: Dict[str, List["FlowRecord"]] = {}
        for record in records:
            streams.setdefault(record.stream_id, []).append(record)
        for stream in sorted(streams):
            emitted = sorted(streams[stream], key=lambda record: record.flow_id)
            lines.extend(
                f"{run} {stream} {seq} {record.nbytes} {float(record.delivered).hex()}"
                for seq, record in enumerate(emitted)
            )
        lines.append(f"{run} results {list(results)!r}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def write_bench(path: str, metrics: Dict[str, float], repeats: int,
                series: Optional[Dict[str, dict]] = None,
                digests: Optional[Dict[str, str]] = None) -> None:
    document = {
        "version": BENCH_FORMAT_VERSION,
        "repeats": repeats,
        "metrics": metrics,
    }
    if digests:
        # Physics digests per point (physics_digest), gated like the metrics.
        document["digests"] = digests
    if series:
        # Windowed live-telemetry series (per query/round p50/p95/p99,
        # throughput, health events).  Informational: load_bench reads
        # only "metrics", so the regression gate stays on the scalars.
        document["series"] = series
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench(path: str) -> Dict[str, float]:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    version = document.get("version")
    if version != BENCH_FORMAT_VERSION:
        raise ValueError(
            f"unsupported BENCH format version {version!r} in {path} "
            f"(expected {BENCH_FORMAT_VERSION})"
        )
    return {str(k): float(v) for k, v in document["metrics"].items()}


def load_digests(path: str) -> Dict[str, str]:
    """The physics digests of a BENCH document (none in one written before
    they were recorded)."""
    with open(path, "r", encoding="utf-8") as handle:
        return dict(json.load(handle).get("digests", {}))


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def figure_of_metric(metric_name: str) -> str:
    """The suite a metric belongs to.

    ``"fig6[B=200,double]/mbps"`` maps to ``"fig6"``,
    ``"fault[kill-node,n=2]/recovery_s"`` to ``"fault"``; the
    bench CLI compares a run against the baseline keys of the suites it
    was asked to produce.
    """
    return metric_name.split("[", 1)[0].split("/", 1)[0]


def compare_bench(
    baseline: Mapping[str, object], current: Mapping[str, object], what: str = "metric"
) -> Tuple[List[str], int]:
    """Compare a run against a baseline key for key, by equality.

    Values print with ``repr`` so that a 1-ulp difference shows.  ``what``
    names the values in the summary (``"metric"``, or ``"digest"`` for
    :func:`physics_digest` values).

    Returns:
        ``(lines, problems)``: one line per baseline key (``equal``,
        ``DIFFERS`` or ``MISSING``), one per key only the current run has
        (informational: a widened sweep is not a failure, but the baseline
        should be re-recorded) and a summary; ``problems`` counts the
        baseline keys that differ or are missing.
    """
    lines: List[str] = []
    problems = 0
    for name, value in sorted(baseline.items()):
        now = current.get(name)
        if now == value:
            lines.append(f"{name}: {value!r} equal")
            continue
        problems += 1
        if now is None:
            lines.append(f"{name}: MISSING from current run (baseline {value!r})")
        else:
            lines.append(f"{name}: {value!r} -> {now!r} DIFFERS")
    lines.extend(
        f"{name}: new {what} (not in baseline)"
        for name in sorted(set(current) - set(baseline))
    )
    lines.append(f"=> {problems} of {len(baseline)} baseline {what}(s) differ")
    return lines, problems


# ----------------------------------------------------------------------
# Ledger diff: two documents of benchmarks/ledger/run.py
# ----------------------------------------------------------------------
def ledger_verdict(old: float, new: float, higher_better: bool, bound: float) -> str:
    """``worse`` / ``better`` when ``new`` moved past ``bound`` (a fraction
    of ``old``) in that direction, else ``flat``."""
    if old == new:
        return "flat"
    if old == 0.0:
        gain = new > 0.0
    else:
        change = (new - old) / abs(old)
        if abs(change) <= bound:
            return "flat"
        gain = change > 0.0
    return "better" if gain == higher_better else "worse"


def _ledger_results(path: str) -> Dict[str, dict]:
    """``workload -> result`` of a ``run.py --out`` document, or of the
    ``end_to_end`` half of a trajectory point
    (``benchmarks/trajectory/prN.json``)."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return document.get("end_to_end", document)


def _recorded_spreads(spec_path: str) -> Dict[str, Dict[str, dict]]:
    """``workload -> metric -> {"median", "spread"}`` of the ledger's
    ``benchmarks/ledger/BASELINE.json`` beside ``BENCHMARK.json``: the
    run-to-run interquartile spread, as a share of the median, of one run
    per seed (``benchmarks/ledger/spread.py --write``); empty if absent."""
    path = Path(spec_path).parent / "benchmarks" / "ledger" / "BASELINE.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["workloads"]


def diff_ledger(old_path: str, new_path: str, spec_path: str) -> Tuple[List[str], int]:
    """Compare two ledger documents under ``BENCHMARK.json``'s declarations.

    One row per workload of ``old`` x ``end_to_end`` metric, with the ratio
    new/old and a verdict from the metric's ``better`` and ``bound``; then
    the failed share of operations, and every ``exact`` (simulated) key,
    which must be equal.  A document is one run, so a metric whose recorded
    run-to-run spread (:func:`_recorded_spreads`) is wider than its bound
    reads ``unresolved``: one run of it decides nothing (``setup_s`` of
    ``p2p_torus`` and ``lifecycle_tiny``).  Returns ``(lines, problems)``,
    counting a ``worse`` verdict, a higher failed share, an exact key that
    differs and a workload missing from ``new``.
    """
    with open(spec_path, "r", encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]
    spreads = _recorded_spreads(spec_path)
    old, new = _ledger_results(old_path), _ledger_results(new_path)
    lines = [f"{'workload':15s} {'metric':18s} {'old':>14s} {'new':>14s} {'ratio':>8s}  verdict"]
    problems = 0
    for workload in sorted(old):
        if workload not in new:
            lines.append(f"{workload:15s} MISSING from {new_path}")
            problems += 1
            continue
        before, after = old[workload], new[workload]
        for entry in declared:
            name, bound = entry["name"], entry["bound"]
            a, b = before["metrics"][name], after["metrics"][name]
            spread = spreads.get(workload, {}).get(name, {}).get("spread", 0.0)
            if spread > bound:
                verdict = "unresolved"
                reason = f"recorded spread {spread:.0%} > bound {bound:.0%}"
            else:
                verdict = ledger_verdict(a, b, entry["better"] == "higher", bound)
                reason = f"{entry['better']} is better, bound {bound:.0%}"
            ratio = f"x{b / a:.3f}" if a else "n/a"
            lines.append(
                f"{workload:15s} {name:18s} {a:14.6g} {b:14.6g} {ratio:>8s}  "
                f"{verdict} ({reason})"
            )
            problems += verdict == "worse"
        shares = [doc["failed"] / doc["attempted"] if doc["attempted"] else 0.0
                  for doc in (before, after)]
        lines.append(
            f"{workload:15s} {'failed share':18s} {shares[0]:14.6g} {shares[1]:14.6g} "
            f"{'':>8s}  {'worse' if shares[1] > shares[0] else 'flat'}"
        )
        problems += shares[1] > shares[0]
        for key in sorted(set(before["exact"]) | set(after["exact"])):
            a, b = before["exact"].get(key), after["exact"].get(key)
            lines.append(
                f"{workload:15s} {'(' + key + ')':18s} {a!s:>14s} {b!s:>14s}  "
                f"{'equal' if a == b else 'DIFFERS'}"
            )
            problems += a != b
    lines.append(f"=> {problems} problem(s): {old_path} -> {new_path}")
    return lines, problems
