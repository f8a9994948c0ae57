"""One launch of one workload in a fresh process; prints one JSON object.

``--mode measure`` is the untraced pass behind the end-to-end metrics:
set-up, one untimed warm-up round, then whole rounds for the time budget.
``--mode trace`` runs the reference pass again and, beside it, the stage
ledger, the cProfile attribution, the hooks-on/hooks-off pair, the layer
micro-drives and the model context; none of it feeds an end-to-end number.
"""

import time

_T0 = time.perf_counter()  # first line of the process: set-up starts here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import cProfile  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, List, Optional  # noqa: E402

import calibration  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

#: Rounds of a ``--smoke`` pass (fixed work, for the smoke test).
SMOKE_ROUNDS = 2
#: Share of ``--seconds`` a traced launch gives its interleaved passes; the
#: rest is for the micro-drives and the model context.
TRACE_PASS_SHARE = 0.75


@dataclasses.dataclass
class Sample:
    """One timed op."""

    point: int
    repeat: int
    host_s: float
    sim_s: float
    events: int
    #: Probe time of the sample's round (mean of the probes around it).
    probe_s: float = 0.0
    stages: Optional[Dict[str, float]] = None

    @property
    def probes(self) -> float:
        """The op time in probe times (see calibration.py)."""
        return self.host_s / self.probe_s


@dataclasses.dataclass
class Pass:
    """One way of running the workload's rounds, and what it measured."""

    observed: bool
    staged: bool = False
    after_op: Optional[Callable[[Sample, Any], None]] = None
    #: Entered around each of the pass's ops (a profiler, a GC meter).
    around: Any = dataclasses.field(default_factory=contextlib.nullcontext)
    samples: List[Sample] = dataclasses.field(default_factory=list)
    wall_s: float = 0.0

    def fastest(self) -> List[Sample]:
        """Each point's fastest sample (in probe times), in point order."""
        best: Dict[int, Sample] = {}
        for sample in self.samples:
            if sample.point not in best or sample.probes < best[sample.point].probes:
                best[sample.point] = sample
        return [best[point] for point in sorted(best)]

    def op_probes(self) -> float:
        """Sum over points of the median op time in probe times (see calibration)."""
        ratios: Dict[int, List[float]] = {}
        for sample in self.samples:
            ratios.setdefault(sample.point, []).append(sample.probes)
        return sum(statistics.median(values) for values in ratios.values())


class Launch:
    """A set-up workload and the rounds that run over it."""

    def __init__(self, args: argparse.Namespace) -> None:
        started = time.perf_counter()
        import workloads
        self.import_ms = (time.perf_counter() - started) * 1e3
        from repro.hardware.environment import shared_template
        from repro.scsql.plan import compile_plan
        self.lib = workloads
        self.args = args
        self.workload = workloads.build_workload(args.workload, args.seed, args.smoke)
        if args.corrupt_reference:
            first = self.workload.points[0]
            wrong = dataclasses.replace(first, expected=first.expected + ("wrong",))
            self.workload = dataclasses.replace(
                self.workload, points=(wrong,) + self.workload.points[1:]
            )
        started = time.perf_counter()
        shared_template(self.workload.config)
        self.template_build_ms = (time.perf_counter() - started) * 1e3
        started = time.perf_counter()
        self.plans = [
            None if self.workload.from_text
            else compile_plan(point.text, settings=point.settings)
            for point in self.workload.points
        ]
        self.compile_ms = (time.perf_counter() - started) * 1e3 / len(self.plans)
        self.probe = calibration.Probe(self.workload.probe_runs)
        self.attempted = 0
        self.errors: List[str] = []

    def run_round(self, repeat: int, run: Pass) -> None:
        """Every point once, in this round's seed-shuffled order."""
        lib, workload, args = self.lib, self.workload, self.args
        seed = lib.env_seed(args.seed, repeat)
        first = len(run.samples)
        # Every round starts from a collected heap, so the collections that
        # fall inside its ops do not depend on what ran before it.  Inside
        # the ops the collector is left at its defaults.
        gc.collect()
        before = self.probe()
        round_started = time.perf_counter()
        for index in lib.round_order(workload, args.seed, args.launch, repeat):
            point = workload.points[index]
            marks: List[Any] = []
            mark = (
                (lambda stage: marks.append((stage, time.perf_counter())))
                if run.staged else lib.no_mark
            )
            with run.around:
                started = time.perf_counter()
                result = lib.run_op(
                    workload, point, self.plans[index], seed, run.observed, mark
                )
            sample = Sample(
                index, repeat, result.finished - started, result.sim_s, result.events
            )
            if run.staged:
                sample.stages, previous = {}, started
                for stage, at in marks:
                    sample.stages[stage] = at - previous
                    previous = at
            self.attempted += 1
            if not result.ok:
                self.errors.append(f"{workload.name}/{point.key} r{repeat}: {result.error}")
            if run.after_op is not None:
                run.after_op(sample, result)
            run.samples.append(sample)
        run.wall_s += time.perf_counter() - round_started
        probe_s = (before + self.probe()) / 2
        for sample in run.samples[first:]:
            sample.probe_s = probe_s

    def run_rounds(self, passes: List[Pass], budget_s: float) -> int:
        """Whole rounds of every pass, interleaved round by round.

        Round r of every pass runs back to back, so a drift in machine
        speed reaches all passes alike.  Never fewer than the workload's
        ``min_rounds``; another round is started only if the mean round so
        far still fits the budget.  Returns the rounds run.
        """
        started = time.perf_counter()
        done = 0
        while True:
            if self.args.smoke:
                if done >= SMOKE_ROUNDS:
                    break
            elif done >= self.workload.min_rounds:
                elapsed = time.perf_counter() - started
                if elapsed + elapsed / done > budget_s:
                    break
            for run in passes:
                self.run_round(done, run)
            done += 1
        return done

    def exact_totals(self, run: Pass) -> List[float]:
        """[events, simulated seconds] over the fixed first rounds."""
        fixed = [s for s in run.samples if s.repeat < self.workload.min_rounds]
        fixed.sort(key=lambda s: (s.repeat, s.point))
        return [sum(s.events for s in fixed), sum(s.sim_s for s in fixed)]


# ----------------------------------------------------------------------
# measure
# ----------------------------------------------------------------------
def measure(launch: Launch) -> Dict[str, Any]:
    run = Pass(launch.workload.observed)
    launch.run_round(launch.lib.WARMUP_REPEAT, Pass(run.observed))
    setup_s = time.perf_counter() - _T0
    launch.run_rounds([run], launch.args.seconds)
    return {
        "setup_s": setup_s,
        "samples": [
            [s.point, s.repeat, s.host_s, s.sim_s, s.events, s.probe_s]
            for s in run.samples
        ],
    }


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------
STAGES = ("compile", "fork", "place", "verify", "deploy", "submit", "run", "teardown")
#: Per-layer count -> the obs counter it is read from.
HOOK_COUNTERS = {
    "sim.processes_started": "sim.processes_started",
    "sim.timeouts_created": "sim.timeouts_created",
    "net.torus.payload_bytes": "torus.payload_bytes",
    "net.torus.wire_bytes": "torus.wire_bytes",
    "net.torus.buffers_sent": "torus.buffers_sent",
    "net.torus.source_switches": "torus.source_switches",
    "net.ethernet.ingress_bytes": "ethernet.ingress_bytes",
}


def trace(launch: Launch) -> Dict[str, Any]:
    import attribution
    import microdrives
    from repro.scsql.parser import parse

    lib, workload, args = launch.lib, launch.workload, launch.args
    points = workload.points
    n_points = len(points)
    launch.run_round(lib.WARMUP_REPEAT, Pass(workload.observed))

    # Counts only the hooks see, read after each hooks-on op of the fixed
    # first rounds (outside the timed region).
    counts: Dict[str, float] = dict.fromkeys(
        [*HOOK_COUNTERS, "sim.resource_acquires", "sim.resource_waits",
         "obs.flows_completed", "engine.rps", "engine.bytes_sent"], 0.0
    )

    def count(sample: Sample, result: Any) -> None:
        env = result.env
        if sample.repeat >= workload.min_rounds or env is None or not env.obs.enabled:
            return
        counters = env.obs.snapshot().counters
        for metric, counter in HOOK_COUNTERS.items():
            counts[metric] += counters.get(counter, 0.0)
        for name, value in counters.items():
            if name.startswith("resource.acquires["):
                counts["sim.resource_acquires"] += value
            elif name.startswith("resource.waits["):
                counts["sim.resource_waits"] += value
        counts["obs.flows_completed"] += len(env.obs.flows.completed)
        counts["engine.rps"] += result.rps
        counts["engine.bytes_sent"] += result.bytes_sent

    # Four passes over the same rounds: the reference is the untraced pass
    # exactly as `measure` runs it; the stage ledger reads perf_counter
    # between the public calls with the collector metered; the profile
    # runs under cProfile; the fourth flips the flows hooks, so reference
    # and flipped are the hooks-off/hooks-on pair whichever the workload uses.
    gc_meter = attribution.GcMeter()
    profile = cProfile.Profile()
    reference = Pass(workload.observed, after_op=count)
    staged = Pass(workload.observed, staged=True, around=gc_meter)
    profiled = Pass(workload.observed, around=profile)
    flipped = Pass(not workload.observed, after_op=count)
    passes = [reference, staged, profiled] + [flipped] * workload.hooks_pair
    wall, cpu = time.perf_counter(), time.process_time()
    rounds = launch.run_rounds(passes, args.seconds * TRACE_PASS_SHARE)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    exact = {
        "reference": launch.exact_totals(reference),
        "stages": launch.exact_totals(staged),
        "profile": launch.exact_totals(profiled),
    }
    slowdown, perturbed = 0.0, set()
    if workload.hooks_pair:
        plain, hooked = (flipped, reference) if workload.observed else (reference, flipped)
        slowdown = hooked.op_probes() / plain.op_probes()
        sim_plain = {(s.point, s.repeat): s.sim_s for s in plain.samples}
        perturbed = {
            s.point for s in hooked.samples
            if s.repeat < workload.min_rounds and s.sim_s != sim_plain[s.point, s.repeat]
        }

    host_ms = sorted(s.host_s * 1e3 for s in reference.samples)
    # Stage times of each point's fastest repeat, at nominal machine speed.
    best = staged.fastest()
    nominal_ms = calibration.NOMINAL_PROBE_S * 1e3
    stage_ms = {
        stage: sum(s.stages.get(stage, 0.0) / s.probe_s for s in best)
               * nominal_ms / n_points
        for stage in STAGES
    }
    total_ms = sum(s.probes for s in best) * nominal_ms / n_points
    session = bool(points[0].session_queries)
    before = launch.probe()
    parse_s = sum(min(_timed(parse, point.text) for _ in range(3)) for point in points)
    parse_ms = parse_s / ((before + launch.probe()) / 2) * nominal_ms / n_points
    events, sim_s = exact["reference"]
    metrics: Dict[str, float] = {
        # 1. stage ledger
        "scsql.compile_ms": stage_ms["compile"] if workload.from_text else launch.compile_ms,
        "scsql.parse_ms": parse_ms,
        "hardware.fork_ms": stage_ms["fork"],
        "coordinator.place_ms": stage_ms["place"],
        "analysis.verify_ms": stage_ms["verify"],
        "coordinator.deploy_ms": stage_ms["deploy"],
        "coordinator.run_ms": stage_ms["run"],
        "coordinator.teardown_ms": stage_ms["teardown"],
        "core.mqs_submit_ms": stage_ms["submit"],
        "core.mqs_run_ms": stage_ms["run"] if session else 0.0,
        "core.mqs_teardown_ms": stage_ms["teardown"] if session else 0.0,
        "lifecycle.overhead_share": 1.0 - stage_ms["run"] / total_ms,
        "host.import_ms": launch.import_ms,
        "hardware.template_build_ms": launch.template_build_ms,
        # 2. run attribution
        **attribution.attribute(profile),
        "sim.us_per_event":
            stage_ms["run"] * n_points * 1e3 / sum(s.events for s in best),
        "host.gc_share": gc_meter.seconds / staged.wall_s,
        "host.gc_collections": gc_meter.collections / rounds,
        # 3. counts, exact at a fixed seed
        "sim.events": events,
        "sim.events_per_query": events / (workload.queries_per_round * workload.min_rounds),
        "model.sim_s": sim_s,
        **counts,
        "sim.resource_wait_ratio": _ratio(
            counts["sim.resource_waits"], counts["sim.resource_acquires"]),
        "net.torus.pad_ratio": _ratio(
            counts["net.torus.wire_bytes"], counts["net.torus.payload_bytes"]),
        "obs.slowdown_x": slowdown,
        "obs.perturbation": len(perturbed),
        # 4. layer micro-drives
        **microdrives.run_microdrives(args.smoke, launch.probe),
        # 5. model and host context
        **microdrives.run_model_context(lib.env_seed(args.seed, 0)),
        "host.query_p50_ms": statistics.median(host_ms),
        "host.query_p95_ms": host_ms[min(len(host_ms) - 1, int(0.95 * len(host_ms)))],
        "host.query_samples": len(host_ms),
        "host.noise_x": statistics.median(launch.probe.readings) / launch.probe.fastest,
        "host.cpu_util": cpu / wall,
        "trace.stages_overhead_pct":
            (staged.op_probes() / reference.op_probes() - 1.0) * 100.0,
        "trace.profile_slowdown_x": profiled.op_probes() / reference.op_probes(),
    }
    return {
        "metrics": metrics,
        "exact": exact,
        "stage_gap": abs(sum(stage_ms.values()) - total_ms) / total_ms,
        "rounds": rounds,
    }


def _ratio(numerator: float, denominator: float) -> float:
    """0 where the workload has none of the denominator."""
    return numerator / denominator if denominator else 0.0


def _timed(function: Callable[[str], Any], argument: str) -> float:
    started = time.perf_counter()
    function(argument)
    return time.perf_counter() - started


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--launch", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()

    launch = Launch(args)
    from repro.bench.query_stream import registered
    # Points carry `.sources` like the deck's BenchQuery, which is all
    # `registered` reads.
    with registered(launch.workload.points):
        out = measure(launch) if args.mode == "measure" else trace(launch)
    workload = launch.workload
    out.update({
        "attempted": launch.attempted,
        "failed": len(launch.errors),
        "errors": launch.errors[:5],
        "min_rounds": workload.min_rounds,
        "point_keys": [point.key for point in workload.points],
        "queries": [point.queries for point in workload.points],
        "payload_bytes": [point.payload_bytes * point.queries for point in workload.points],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probe_fastest_s": launch.probe.fastest,
        "probe_median_s": statistics.median(launch.probe.readings),
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
