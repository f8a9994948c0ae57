"""Do two sets of runs of the same code agree within the benchmark's own bounds?

    python3 benchmarks/ledger/agree.py [--seed 0] [--traced]

Runs the full untraced pass twice on the same code and seed, prints each
end-to-end metric of each workload side by side, and fails if a pair
differs by more than that metric's bound.  What is simulated — ``sim_mbps``,
``sim.events``, ``model.sim_s``, the failure count — must match exactly,
and ``p2p_observed`` must simulate exactly what ``p2p_torus`` does.  Then
runs the next seed once and requires a fail ratio of 0.  ``--traced`` also
runs the traced pass twice and requires every count identical.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List

from run import LedgerError, load_spec, run_measure, run_trace

#: Per-layer metrics that are simulated, so exact at a fixed seed.
COUNTS = (
    "sim.events", "sim.events_per_query", "model.sim_s", "sim.processes_started",
    "sim.timeouts_created", "sim.resource_acquires", "sim.resource_waits",
    "sim.resource_wait_ratio", "engine.rps", "engine.bytes_sent",
    "net.torus.payload_bytes", "net.torus.wire_bytes", "net.torus.pad_ratio",
    "net.torus.buffers_sent", "net.torus.source_switches",
    "net.ethernet.ingress_bytes", "obs.flows_completed", "obs.perturbation",
    "model.q5_peak_err_pct", "model.merge_gain_err_pct",
)


def full_pass(run: Callable[..., Dict[str, Any]], names: List[str], seed: int,
              seconds: float, failures: List[str]) -> Dict[str, Dict[str, Any]]:
    results = {name: run(name, seed, seconds) for name in names}
    for name, result in results.items():
        for line in result["errors"] + result["problems"]:
            failures.append(f"{name} (seed {seed}): {line}")
        if result["failed"]:
            failures.append(
                f"{name} (seed {seed}): fail ratio "
                f"{result['failed']}/{result['attempted']}, not 0"
            )
    return results


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    names = [entry["name"] for entry in spec["workloads"]]
    seconds = spec["run_seconds"]
    failures: List[str] = []
    try:
        first = full_pass(run_measure, names, args.seed, seconds, failures)
        second = full_pass(run_measure, names, args.seed, seconds, failures)
        for name in names:
            a, b = first[name], second[name]
            for entry in spec["end_to_end"]:
                metric, bound = entry["name"], entry["bound"]
                x, y = a["metrics"][metric], b["metrics"][metric]
                apart = abs(x - y) / min(abs(x), abs(y))
                exact = metric == "sim_mbps"
                agree = x == y if exact else apart <= bound
                print(f"{name:15s} {metric:18s} {x:14.4f} {y:14.4f}  "
                      f"apart {apart:7.4f}  "
                      f"{'exact' if exact else f'bound {bound:.2f}'}"
                      f"{'' if agree else '  DISAGREE'}", flush=True)
                if not agree:
                    failures.append(f"{name}/{metric}: {x!r} against {y!r}")
            if a["exact"] != b["exact"]:
                failures.append(f"{name}: counts {a['exact']} against {b['exact']}")
        if first["p2p_observed"]["exact"] != first["p2p_torus"]["exact"]:
            failures.append("p2p_observed does not simulate what p2p_torus does")
        if args.traced:
            one = full_pass(run_trace, names, args.seed, seconds, failures)
            two = full_pass(run_trace, names, args.seed, seconds, failures)
            for name in names:
                for metric in COUNTS:
                    x, y = one[name]["metrics"][metric], two[name]["metrics"][metric]
                    if x != y:
                        failures.append(f"{name}/{metric}: count {x!r} against {y!r}")
            print(f"traced: {len(COUNTS)} counts x {len(names)} workloads compared")
        full_pass(run_measure, names, args.seed + 1, seconds, failures)
        print(f"seed {args.seed + 1}: ran {len(names)} workloads")
    except LedgerError as error:
        print(f"agree: {error}", file=sys.stderr)
        return 2
    for line in failures:
        print(f"agree: {line}")
    print("agree: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
