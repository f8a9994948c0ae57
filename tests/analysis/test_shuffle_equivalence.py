"""Shuffle equivalence: published numbers do not ride on dispatch order.

Every permutation of same-``(when, rank)`` events is a legal total order
under the kernel's scheduling contract, so any outcome the paper reports
must be identical under the seeded :class:`ShuffleScheduler`.  The suite
replays one point of each figure, a kill-node fault, and an adaptive
migration under five chaos seeds and demands **float-exact** equality of:

* query results (every figure point, the fault run, the adaptive run);
* logical flow totals per stream — count, bytes, EOS markers;
* fault logical outcome — what failed, what replaced it, when, and how
  long recovery took;
* adaptive migration decisions — which SP moved where, and whether the
  move committed.

The end-to-end *duration* is additionally invariant for the single-query
fig6 path, and so, at 4 096 B x 120 with every teardown audited by a
sanitizer scope, is each stream's timed envelope (first birth, last
delivery).  Per-hop and per-flow timestamps are not compared anywhere —
the torus links and co-processors serve same-instant requesters FIFO, so
the grant order among simultaneous arrivals (e.g. the two outstanding
buffers of a double-buffered sender) *is* the tie-break order the
shuffle permutes — a documented property of the kernel, not a race (see
``docs/static-analysis.md``).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import sanitize
from repro.bench.faults import FaultTask, run_fault_task
from repro.bench.query_stream import SMOKE_SCALE
from repro.coordinator.deployer import Deployer
from repro.core.experiments.adaptive import run_adaptive_point
from repro.core.experiments.fig6 import point_to_point_query, scaled_workload
from repro.core.experiments.fig8 import SEQUENTIAL, merge_query
from repro.core.experiments.fig15 import inbound_query
from repro.hardware.environment import Environment, EnvironmentConfig
from repro.obs import Instrumentation
from repro.obs.flow import FlowRecorder
from repro.scsql.plan import compile_plan
from repro.sim import Simulator

#: The acceptance gate's seed sweep: five distinct chaos seeds.
CHAOS_SEEDS = (0, 1, 2, 3, 4)


def _logical(fingerprint):
    """Timing-free projection of a flow fingerprint: (count, bytes, eos)."""
    return {stream: entry[:3] for stream, entry in fingerprint.items()}


def _run_instrumented(query):
    """One deployment of ``query`` on a fresh flow-instrumented env."""
    obs = Instrumentation(flows=FlowRecorder())
    env = Environment(EnvironmentConfig(), obs=obs)
    deployer = Deployer(env)
    report = deployer.run(compile_plan(query))
    deployer.teardown()
    sanitize.assert_quiescent(env)
    return report, obs


def _fig6_outcome():
    report, obs = _run_instrumented(point_to_point_query(1024, 8))
    return {
        "result": report.result,
        "duration": report.duration,
        "flows": _logical(sanitize.flow_fingerprint(obs.flows)),
    }


def _fig6_envelope_outcome():
    """The fig6 point at 4 096 B x 120, keeping each stream's timed envelope
    (first birth, last delivery) in its flow fingerprint."""
    report, obs = _run_instrumented(point_to_point_query(*scaled_workload(4096, 120)))
    return {
        "result": report.result,
        "duration": report.duration,
        "flows": sanitize.flow_fingerprint(obs.flows),
    }


def _fig8_outcome():
    x, y = SEQUENTIAL
    report, obs = _run_instrumented(merge_query(1024, 6, x, y))
    return {
        "result": report.result,
        "flows": _logical(sanitize.flow_fingerprint(obs.flows)),
    }


def _fig15_outcome():
    report, obs = _run_instrumented(inbound_query(3, 4, 1024, 4))
    return {
        "result": report.result,
        "flows": _logical(sanitize.flow_fingerprint(obs.flows)),
    }


def _kill_node_outcome():
    outcome = run_fault_task(
        FaultTask(seed=0, streams=2, scenario="kill-node", scale=SMOKE_SCALE)
    )
    return {
        "results_ok": outcome.results_ok,
        "fault_time": outcome.fault_time,
        "failed_nodes": tuple(outcome.failed_nodes),
        "replacements": tuple(outcome.replacements),
        "recovery_s": outcome.recovery_s,
    }


def _adaptive_outcome():
    comparison = run_adaptive_point("fig8", seed=0, smoke=True)
    return {
        "decisions": [
            (record.sp_id, record.target, record.ok, record.rolled_back)
            for record in comparison.migrations
        ],
        "results": {
            outcome.label: outcome.report.result
            for outcome in comparison.adaptive.outcomes
        },
    }


class TestFigurePointEquivalence:
    """One point per published figure, replayed under all five seeds."""

    @pytest.mark.no_sanitize  # audits itself: scopes do not nest
    def test_fig6_point_is_shuffle_invariant_including_timing(self):
        with sanitize.sanitizer(label="fig6-equivalence", strict=False) as scope:
            for harness in (_fig6_outcome, _fig6_envelope_outcome):
                _report, outcomes = sanitize.run_shuffled(
                    harness, seeds=CHAOS_SEEDS, label="fig6-equivalence"
                )
                assert outcomes[0]["duration"] > 0.0
        # every replay's teardown was audited, and no seed diverged
        assert scope.audited == 2 * len(CHAOS_SEEDS)
        assert scope.report.diagnostics == [], scope.report.format_text()

    def test_fig8_merge_point_is_shuffle_invariant(self):
        report, outcomes = sanitize.run_shuffled(
            _fig8_outcome, seeds=CHAOS_SEEDS, label="fig8-equivalence"
        )
        assert report.diagnostics == []
        assert outcomes[0]["result"]

    def test_fig15_inbound_point_is_shuffle_invariant(self):
        report, outcomes = sanitize.run_shuffled(
            _fig15_outcome, seeds=CHAOS_SEEDS, label="fig15-equivalence"
        )
        assert report.diagnostics == []
        assert outcomes[0]["result"]


class TestChaosRunsTheProductionLoop:
    """A chaos replay is only evidence about production if it dispatches
    through the loop production runs: ``Simulator._run_batched``."""

    def test_fig6_point_under_chaos_never_steps(self, monkeypatch):
        def refuse(_sim):
            raise AssertionError("a chaos run dispatched through Simulator.step()")

        monkeypatch.setattr(Simulator, "step", refuse)
        with sanitize.chaos(seed=1):
            outcome = _fig6_outcome()
        assert outcome["result"] and outcome["duration"] > 0.0


class TestFaultAndAdaptiveEquivalence:
    def test_kill_node_logical_outcome_is_shuffle_invariant(self):
        report, outcomes = sanitize.run_shuffled(
            _kill_node_outcome, seeds=CHAOS_SEEDS, label="fault-equivalence"
        )
        assert report.diagnostics == []
        baseline = outcomes[0]
        assert baseline["results_ok"]
        assert baseline["failed_nodes"]
        assert baseline["replacements"]

    def test_adaptive_migration_decision_is_shuffle_invariant(self):
        report, outcomes = sanitize.run_shuffled(
            _adaptive_outcome, seeds=CHAOS_SEEDS, label="adaptive-equivalence"
        )
        assert report.diagnostics == []
        assert outcomes[0]["decisions"], "the fig8 point must migrate"


class TestHypothesisEquivalence:
    """Property form: *any* seed pair agrees, not just the CI five."""

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed_a=st.integers(min_value=0, max_value=2**16),
        seed_b=st.integers(min_value=0, max_value=2**16),
        count=st.sampled_from([4, 8]),
    )
    def test_fig6_outcome_equal_for_any_seed_pair(self, seed_a, seed_b, count):
        def harness():
            report, obs = _run_instrumented(point_to_point_query(1024, count))
            return {
                "result": report.result,
                "duration": report.duration,
                "flows": _logical(sanitize.flow_fingerprint(obs.flows)),
            }

        flagged, (first, second) = sanitize.run_shuffled(
            harness, seeds=(seed_a, seed_b), label="fig6-property"
        )
        assert flagged.diagnostics == []
        assert first == second
