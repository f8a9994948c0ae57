"""Run-to-run spread of every end-to-end metric, as the driver takes it.

    python3 benchmarks/ledger/spread.py [--workload NAME] [--seeds 10] [--write]

Runs each workload once per seed (untraced), and for each end-to-end
metric prints the median and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
beside the metric's bound.  Fails if a spread other than ``setup_s``'s
exceeds its bound.  ``--write`` records medians and spreads, with the host
they were measured on, in ``BASELINE.json`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from typing import Any, Dict, List

from run import HERE, LedgerError, load_spec, run_measure


def spread_of(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main() -> int:
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--commit", default="", help="commit measured, for --write")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    baseline: Dict[str, Any] = {}
    over: List[str] = []
    for name in args.workload or names:
        try:
            runs = [run_measure(name, seed, spec["run_seconds"]) for seed in seeds]
        except LedgerError as error:
            print(f"spread: {error}", file=sys.stderr)
            return 2
        failed = sum(run["failed"] + len(run["problems"]) for run in runs)
        baseline[name] = {}
        for metric, bound in bounds.items():
            values = [run["metrics"][metric] for run in runs]
            median, spread = statistics.median(values), spread_of(values)
            baseline[name][metric] = {"median": median, "spread": spread}
            verdict = "" if spread <= bound or metric == "setup_s" else "  > bound"
            print(f"{name:15s} {metric:18s} median {median:14.4f}  "
                  f"spread {spread:8.4f}  bound {bound:.2f}{verdict}", flush=True)
            if verdict:
                over.append(f"{name}/{metric}")
        if failed:
            over.append(f"{name}: {failed} failed checks")
    if args.write:
        document = {
            "commit": args.commit,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "run_seconds": spec["run_seconds"],
            "seeds": list(seeds),
            "note": "median and interquartile spread (share of the median) over "
                    "one untraced run per seed",
            "workloads": baseline,
        }
        (HERE / "BASELINE.json").write_text(json.dumps(document, indent=2) + "\n")
    for line in over:
        print(f"spread: over its bound: {line}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
