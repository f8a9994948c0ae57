"""Record a trajectory point as a paired experiment: parent against change.

    python3 benchmarks/trajectory/record.py --parent REV --pairs N \
        [--workload W] [--smoke] --out FILE

Runs the unedited ledger (``benchmarks/ledger/run.py --seed 0``) on a
``git archive`` copy of ``REV`` and on the working tree, ``N`` times each,
alternating which side runs first.  Both sides inherit the environment, and
neither reads or writes bytecode.  ``FILE`` is a trajectory point: its
``end_to_end`` is the change's document of the first pair, so ``repro bench
diff`` reads it as before; ``pairs`` holds, per workload and end-to-end
metric, every pair's ratio change/parent, their median, the pairs the change
won, and each side's median and quartiles (README.md).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[2]
LEDGER = Path("benchmarks") / "ledger" / "run.py"


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of ``values`` (all three the value when only one)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(parents: List[Dict[str, Any]], changes: List[Dict[str, Any]],
            declared: List[Dict[str, Any]]) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """``workload -> metric -> summary`` of paired ledger documents: pair
    ``i`` is ``(parents[i], changes[i])``.  A pair is won when the change is
    better in the metric's declared direction; a tie is won by neither."""
    summary: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for workload in parents[0]:
        summary[workload] = {}
        for entry in declared:
            name = entry["name"]
            old = [document[workload]["metrics"][name] for document in parents]
            new = [document[workload]["metrics"][name] for document in changes]
            higher = entry["better"] == "higher"
            ratios = [b / a if a else float("nan") for a, b in zip(old, new)]
            summary[workload][name] = {
                "ratios": ratios,
                "median_ratio": statistics.median(ratios),
                "won": sum((b > a) if higher else (b < a) for a, b in zip(old, new)),
                "pairs": len(ratios),
                "parent": quartiles(old),
                "change": quartiles(new),
            }
    return summary


def _run(tree: Path, out: Path, args: argparse.Namespace, env: Dict[str, str]) -> Dict[str, Any]:
    command = [sys.executable, str(LEDGER), "--seed", "0", "--out", str(out),
               "--workload", args.workload] + ["--smoke"] * args.smoke
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1) or not out.exists():
        raise SystemExit(f"record: the ledger failed in {tree}\n{done.stderr.strip()}")
    return json.loads(out.read_text())


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision the change is paired with")
    parser.add_argument("--pairs", type=int, required=True, help="launch pairs (each side N runs)")
    parser.add_argument("--workload", default="all", help="one ledger workload (default: all)")
    parser.add_argument("--smoke", action="store_true", help="pass --smoke to every ledger run")
    parser.add_argument("--out", type=Path, required=True, help="the trajectory point to write")
    args = parser.parse_args(argv)
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", parent], cwd=ROOT,
                             capture_output=True, check=True).stdout
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="record-") as scratch:
        base = Path(scratch)
        trees = {"parent": base / "parent", "change": ROOT}
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(trees["parent"])
        # An empty cache prefix: no tree's __pycache__ is read, nothing is written.
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPYCACHEPREFIX": str(base / "no-bytecode")}
        runs: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                runs[side].append(_run(trees[side], base / f"{side}{pair}.json", args, env))
                print(f"record: pair {pair + 1}/{args.pairs} {side} done", file=sys.stderr)
    pairs = compare(runs["parent"], runs["change"], declared)
    point = {
        "point": args.out.stem,
        "parent": parent,
        "host": f"{os.cpu_count()}-CPU {platform.machine()} {platform.system()}, "
                f"Python {platform.python_version()}",
        "end_to_end": runs["change"][0],
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(point, indent=2) + "\n")
    for workload, metrics in pairs.items():
        for name, row in metrics.items():
            print(f"{workload:15s} {name:18s} x{row['median_ratio']:.3f}  "
                  f"won {row['won']} of {row['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
