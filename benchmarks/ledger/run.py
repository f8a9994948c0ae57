"""Host-time ledger: one command, every metric by name with its unit.

    python3 benchmarks/ledger/run.py --workload p2p_torus --seed 0 --trace 0

runs one workload in fresh processes (``worker.py``), checks every query
result against its reference, validates the output against
``BENCHMARK.json`` and prints the metrics: the end-to-end ones with
``--trace 0`` (tracing off), the per-layer ones with ``--trace 1``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits non-zero on a failed
check.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

from calibration import NOMINAL_PROBE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Fresh processes per untraced run; the time budget is split between them
#: so repeats are spread over time, and set-up is sampled once in each.
LAUNCHES = 3
#: A run must end within 180 s whatever happens inside a worker.
RUN_TIMEOUT_S = 170.0
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class LedgerError(Exception):
    """The benchmark itself could not run (not: a query gave a wrong result)."""


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _launch(mode: str, workload: str, seed: int, seconds: float, launch: int,
            smoke: bool, corrupt: bool, timeout: float) -> Dict[str, Any]:
    command = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--launch", str(launch),
    ] + ["--smoke"] * smoke + ["--corrupt-reference"] * corrupt
    # Hash randomisation off: with it, the op time of string-keyed code
    # (the obs hooks most of all) differs by +-15 % from process to process.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=timeout, cwd=ROOT, env=env
        )
    except subprocess.TimeoutExpired:
        raise LedgerError(f"{workload}: worker exceeded {timeout:.0f} s") from None
    if done.returncode != 0:
        raise LedgerError(f"{workload}: worker failed\n{done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ----------------------------------------------------------------------
def run_measure(workload: str, seed: int, seconds: float, smoke: bool = False,
                corrupt: bool = False) -> Dict[str, Any]:
    """End-to-end metrics of one workload, from ``LAUNCHES`` fresh processes."""
    count = 1 if smoke else LAUNCHES
    launches = [
        _launch("measure", workload, seed, seconds / count, index, smoke, corrupt,
                RUN_TIMEOUT_S / count)
        for index in range(count)
    ]
    first = launches[0]
    problems: List[str] = []
    # Host side: each point's median op time in probe times, scaled to the
    # nominal machine speed (calibration.py says why).
    ratios: Dict[int, List[float]] = {}
    host_ms: List[float] = []
    for launch in launches:
        for point, _, host_s, _, _, probe_s in launch["samples"]:
            ratios.setdefault(point, []).append(host_s / probe_s)
            host_ms.append(host_s * 1e3)
    probe_s = min(launch["probe_fastest_s"] for launch in launches)
    op_s = {
        point: statistics.median(values) * NOMINAL_PROBE_S
        for point, values in ratios.items()
    }
    # The simulated side, over the fixed first rounds of launch 0 — and the
    # same rounds of every other launch must reproduce it exactly.
    fixed = [
        {(s[0], s[1]): (s[3], s[4]) for s in launch["samples"] if s[1] < launch["min_rounds"]}
        for launch in launches
    ]
    if any(other != fixed[0] for other in fixed[1:]):
        problems.append("simulated time or event count differs between launches")
    sim_s = sum(value[0] for _, value in sorted(fixed[0].items()))
    events = sum(value[1] for value in fixed[0].values())
    bits = sum(first["payload_bytes"][point] * 8 for point, _ in fixed[0])
    metrics = {
        "setup_s": statistics.median(launch["setup_s"] for launch in launches),
        "queries_per_s": sum(first["queries"]) / sum(op_s.values()),
        "slowest_query_ms": max(op_s.values()) * 1e3,
        "peak_rss_mb": max(launch["rss_mb"] for launch in launches),
        "sim_mbps": bits / sim_s / 1e6,
    }
    host_ms.sort()
    return {
        "workload": workload,
        "attempted": sum(launch["attempted"] for launch in launches),
        "failed": sum(launch["failed"] for launch in launches),
        "errors": [error for launch in launches for error in launch["errors"]][:5],
        "problems": problems,
        "metrics": metrics,
        # Simulated, exact at a fixed seed: agree.py requires them identical.
        "exact": {"sim.events": events, "model.sim_s": sim_s},
        # Raw host latency does not repeat within a tenth on a shared box,
        # so it is shown with its sample count and never gated.
        "info": {
            "host.query_p50_ms": statistics.median(host_ms),
            "host.query_p95_ms": host_ms[min(len(host_ms) - 1, int(0.95 * len(host_ms)))],
            "host.query_samples": len(host_ms),
            "host.noise_x": statistics.median(
                launch["probe_median_s"] for launch in launches
            ) / probe_s,
            "probe_fastest_ms": probe_s * 1e3,
            "rounds_per_launch": [
                1 + max(s[1] for s in launch["samples"]) for launch in launches
            ],
            "slowest_point": first["point_keys"][max(op_s, key=op_s.get)],
        },
    }


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics
# ----------------------------------------------------------------------
def run_trace(workload: str, seed: int, seconds: float, smoke: bool = False,
              corrupt: bool = False) -> Dict[str, Any]:
    """Per-layer metrics of one workload, from one traced process."""
    out = _launch("trace", workload, seed, seconds, 0, smoke, corrupt, RUN_TIMEOUT_S)
    metrics = out["metrics"]
    problems: List[str] = []
    self_sum = sum(value for name, value in metrics.items() if name.endswith(".self_share"))
    if abs(self_sum - 1.0) > 0.01:
        problems.append(f"self shares sum to {self_sum:.4f}, not 1 +/- 0.01")
    if out["stage_gap"] > 0.02:
        problems.append(
            f"stage times miss the op time by {out['stage_gap']:.1%} (> 2 %)"
        )
    reference = out["exact"]["reference"]
    for name, totals in out["exact"].items():
        if totals != reference:
            problems.append(
                f"traced pass {name!r} gave sim.events/model.sim_s {totals}, "
                f"the untraced reference {reference}"
            )
    if metrics["obs.perturbation"]:
        problems.append(
            f"the flows hooks changed the simulated duration of "
            f"{metrics['obs.perturbation']:.0f} point(s)"
        )
    return {
        "workload": workload,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "errors": out["errors"],
        "problems": problems,
        "metrics": metrics,
        "exact": {"sim.events": reference[0], "model.sim_s": reference[1]},
        "info": {"rounds_per_pass": out["rounds"]},
    }


# ----------------------------------------------------------------------
# Validation and output
# ----------------------------------------------------------------------
def validate(result: Dict[str, Any], declared: List[Dict[str, Any]]) -> None:
    """Every metric is named, declared, unit-carrying and a finite number."""
    problems = result["problems"]
    units = {entry["name"]: entry.get("unit") for entry in declared}
    metrics = result["metrics"]
    for name in sorted(set(units) - set(metrics)):
        problems.append(f"declared metric {name!r} was not measured")
    for name, value in metrics.items():
        if not NAME.fullmatch(name):
            problems.append(f"metric name {name!r} is malformed")
        if name not in units:
            problems.append(f"metric {name!r} is not listed in BENCHMARK.json")
        elif not units[name]:
            problems.append(f"metric {name!r} has no unit")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"metric {name!r} is not a finite number: {value!r}")


def final_object(result: Dict[str, Any], units: Dict[str, str]) -> Dict[str, Any]:
    """The driver's result object for one workload."""
    return {
        "correct": not result["failed"] and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in result["metrics"].items()
        },
    }


def report(result: Dict[str, Any], units: Dict[str, str]) -> None:
    """Every metric by name with its unit, one per line."""
    name = result["workload"]
    for metric, value in result["metrics"].items():
        print(f"{name:15s} {metric:34s} {value:16.6f} {units.get(metric, '')}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name:15s} {'fail_ratio':34s} {failed / attempted:16.6f} ratio"
          f"   ({failed} failed of {attempted} attempted)")
    for key, value in {**result["exact"], **result["info"]}.items():
        print(f"{name:15s} ({key}: {value})")
    for line in result["errors"] + result["problems"]:
        print(f"{name:15s} FAILED CHECK: {line}")


def main(argv: List[str] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"ledger: {ROOT / 'src' / 'repro'} not found: run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time of one run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: the per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, help="also write the full results as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="one launch, two rounds, mqs_scale at 8x8x8/128 queries")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: give the first point a wrong reference result")
    args = parser.parse_args(argv)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    run = run_trace if args.trace else run_measure
    selected = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in selected:
            result = run(name, args.seed, args.seconds, args.smoke, args.corrupt_reference)
            validate(result, declared)
            results[name] = result
    except LedgerError as error:
        print(f"ledger: {error}", file=sys.stderr)
        return 2
    if not args.trace and {"p2p_torus", "p2p_observed"} <= set(results):
        pair = [results[name]["metrics"]["sim_mbps"] for name in ("p2p_torus", "p2p_observed")]
        if pair[0] != pair[1]:
            results["p2p_observed"]["problems"].append(
                f"sim_mbps {pair[1]!r} differs from p2p_torus's {pair[0]!r}"
            )
    for result in results.values():
        report(result, units)
    if args.out:
        args.out.write_text(json.dumps(results, indent=2) + "\n")
    finals = {name: final_object(result, units) for name, result in results.items()}
    if args.workload == "all":
        final: Dict[str, Any] = {
            "correct": all(one["correct"] for one in finals.values()),
            "attempted": sum(one["attempted"] for one in finals.values()),
            "failed": sum(one["failed"] for one in finals.values()),
            "workloads": finals,
        }
    else:
        final = finals[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
