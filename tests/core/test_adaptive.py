"""Adaptive runtime: the observe -> decide -> act loop, end to end.

The tentpole behaviours under test:

* a plain ``session.run()`` is untouched by live instrumentation, and a
  zero-budget ``AdaptiveController(session).run()`` is float-identical
  to it — the runtime is provably inert until it acts;
* on the Fig 15 contention funnel the controller migrates receivers off
  the shared I/O path and the worst query's bandwidth improves; on the
  Fig 8 sequential selection it moves the generator off the busy
  intermediate route — both with exact results;
* the migration lifecycle itself: quiesce -> redeploy -> replay, with
  rollback when the move cannot be placed, and randomized free-node
  targets never tripping SCSQ103/201.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coordinator.deployer import Deployer
from repro.core.adaptive import (
    BUDGET,
    CHECK_INTERVAL,
    COOLDOWN,
    IMPROVEMENT_FACTOR,
    MAX_FACTOR,
    MIN_FACTOR,
    AdaptiveController,
)
from repro.core.experiments import FIGURES
from repro.core.experiments.adaptive import (
    ADAPTIVE_POINTS,
    _point_spec,
    _run_session,
    run_adaptive_point,
    write_health_events,
)
from repro.core.experiments.contention import DEFAULT_SENDERS, contending_query
from repro.core.multiquery import MultiQuerySession
from repro.hardware.environment import (
    Environment,
    EnvironmentConfig,
    shared_template,
)
from repro.obs.instrument import Instrumentation
from repro.obs.live import DEFAULT_WINDOW, LiveSampler
from repro.obs.tracer import NULL_TRACER
from repro.scsql.plan import compile_plan
from repro.util.errors import QueryExecutionError

#: Small, fast workload for the session-level tests.
N, ARRAY_BYTES, COUNT = 2, 50_000, 2
PAYLOAD = N * ARRAY_BYTES * COUNT

#: A three-SP merge whose generators the lifecycle tests migrate.
MERGE_QUERY = """
select extract(c)
from sp a, sp b, sp c
where c=sp(count(merge({a,b})), 'bg', 0)
and a=sp(gen_array(100000,4), 'bg', 1)
and b=sp(gen_array(100000,4), 'bg', 2);
"""
MERGE_RESULT = [8]


def _env(seed=0, live=False):
    config = EnvironmentConfig().with_seed(seed)
    obs = (
        Instrumentation(
            tracer=NULL_TRACER, live=LiveSampler(window=DEFAULT_WINDOW)
        )
        if live
        else None
    )
    return Environment(config, obs=obs, template=shared_template(config))


def _run_contention(session: MultiQuerySession):
    for label, sender in DEFAULT_SENDERS.items():
        session.submit(
            compile_plan(contending_query(sender, N, ARRAY_BYTES, COUNT)),
            payload_bytes=PAYLOAD,
            label=label,
        )
    result = session.run()
    session.teardown()
    return result


class TestAdaptiveConfig:
    """The runtime's configuration: fixed module constants plus the one
    ``budget`` parameter the zero-budget contract below needs."""

    def test_defaults_are_valid(self):
        assert CHECK_INTERVAL == DEFAULT_WINDOW
        assert COOLDOWN >= 0.0
        assert BUDGET >= 1
        assert IMPROVEMENT_FACTOR > 1.0
        assert 0.0 < MIN_FACTOR <= MAX_FACTOR

    def test_rejects_a_negative_budget(self):
        session = MultiQuerySession(_env(live=True))
        with pytest.raises(QueryExecutionError, match="budget"):
            AdaptiveController(session, budget=-1)

    def test_adaptive_session_needs_live_instrumentation(self):
        session = MultiQuerySession(_env(live=False))
        session.submit(compile_plan(MERGE_QUERY), payload_bytes=800_000)
        with pytest.raises(QueryExecutionError, match="live-instrumented"):
            AdaptiveController(session).run()
        # Refused before anything started: the session is still runnable.
        assert session.run().outcomes[0].report.result == MERGE_RESULT
        session.teardown()


class TestOffIsBitIdentical:
    def test_explicit_off_equals_default_session(self):
        """A live-instrumented plain session equals an uninstrumented one,
        float for float: the sampler an adaptive run needs must not perturb
        the classic ``session.run()`` path."""
        baseline = _run_contention(MultiQuerySession(_env(live=False)))
        off = _run_contention(MultiQuerySession(_env(live=True)))
        for before, after in zip(baseline.outcomes, off.outcomes):
            assert after.label == before.label
            assert after.report.result == before.report.result
            assert after.report.duration == before.report.duration
            assert after.mbps == before.mbps
            assert after.report.rp_placements == before.report.rp_placements

    def test_off_path_reports_no_migrations(self):
        result = _run_contention(MultiQuerySession(_env(live=True)))
        assert result.migrations == []
        for outcome in result.outcomes:
            assert outcome.migrations == []
            assert outcome.total_duration is None

    def test_zero_budget_adaptive_run_is_float_identical_to_static(self):
        """The stepped control loop with its budget spent is exactly the
        classic run: stepping the simulator cannot move a single float."""
        comparison = run_adaptive_point(
            "fig15", smoke=True, budget=0
        )
        assert comparison.adaptive.migrations == []
        for static, adaptive in zip(
            comparison.static.outcomes, comparison.adaptive.outcomes
        ):
            assert adaptive.mbps == static.mbps
            assert adaptive.report.duration == static.report.duration
            assert adaptive.report.result == static.report.result


@pytest.fixture(scope="module")
def fig15():
    return run_adaptive_point("fig15", smoke=True)


@pytest.fixture(scope="module")
def fig8():
    return run_adaptive_point("fig8", smoke=True)


class TestFig15Contention:
    def test_adaptive_beats_static(self, fig15):
        assert fig15.speedup > 1.2

    def test_controller_migrated_within_budget(self, fig15):
        records = fig15.adaptive.migrations
        assert 1 <= len(records) <= BUDGET
        for record in records:
            assert record.ok and not record.rolled_back
            assert "+g" in record.rp_prefix
            assert record.source != record.target

    def test_migrated_queries_produce_exact_results(self, fig15):
        for label in DEFAULT_SENDERS:
            assert (
                fig15.adaptive[label].report.result
                == fig15.static[label].report.result
            )

    def test_migration_actually_moved_the_placement(self, fig15):
        moved = {record.sp_id for record in fig15.adaptive.migrations}
        assert moved
        for record in fig15.adaptive.migrations:
            label = record.rp_prefix.split("+", 1)[0]
            placements = fig15.adaptive[label].report.rp_placements
            assert placements[record.sp_id] == record.target

    def test_recovery_time_is_measured(self, fig15):
        assert fig15.recover_s > 0.0

    def test_health_events_export(self, fig15, tmp_path):
        path = tmp_path / "health.jsonl"
        count = write_health_events(str(path), fig15.adaptive)
        lines = path.read_text().splitlines()
        assert count == len(lines) > 0
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "saturated" in kinds

    def test_format_table_renders_the_comparison(self, fig15):
        table = fig15.format_table()
        assert "speedup" in table and "migration" in table
        for label in DEFAULT_SENDERS:
            assert label in table


class TestTwoDriversOneSpec:
    def test_the_fig15_point_is_the_multiquery_rows_and_reads_the_same(self, quick):
        """The adaptive fig15 point is the row's distinct-sender, shared-pset
        point of k = 2, n = 2; its live-watched static run reads the row's
        Mbps float for float: the live hooks move no simulated time."""
        (multiquery,) = FIGURES["multiquery"]
        key = (2, 2, "distinct", "shared")
        (row_spec,) = [spec for spec in multiquery.specs() if spec.key == key]
        assert _point_spec("fig15", smoke=False) == row_spec
        static = _run_session(row_spec, EnvironmentConfig().with_seed(0), None)
        (session,) = quick(multiquery).at(*key).reports
        assert [o.mbps for o in static.outcomes] == [o.mbps for o in session.outcomes]
        assert [round(o.mbps, 1) for o in static.outcomes] == [46.7, 46.7]


class TestFig8BusyIntermediate:
    def test_runtime_rediscovers_the_balanced_route(self, fig8):
        """Sequential selection routes b through a's busy co-processor;
        the one migration the controller makes must beat staying put."""
        assert fig8.speedup > 1.1
        records = fig8.adaptive.migrations
        assert len(records) == 1
        assert records[0].ok and not records[0].rolled_back
        assert records[0].sp_id.startswith("b")

    def test_results_stay_exact(self, fig8):
        assert (
            fig8.adaptive["q8"].report.result
            == fig8.static["q8"].report.result
        )

    def test_unknown_point_rejected(self):
        with pytest.raises(QueryExecutionError, match="unknown adaptive"):
            run_adaptive_point("fig99", smoke=True)

    def test_points_registry(self):
        assert set(ADAPTIVE_POINTS) == {"fig15", "fig8"}


class TestMigrationLifecycle:
    #: A long-running neighbour occupying bg:5 while migrations happen.
    OCCUPANT = """
    select extract(b)
    from sp a, sp b
    where b=sp(count(extract(a)), 'bg', 5)
    and a=sp(gen_array(1000000,60), 'bg', 6);
    """

    def _deployed(self):
        env = Environment(EnvironmentConfig())
        deployer = Deployer(env)
        plan = compile_plan(MERGE_QUERY)
        deployment = deployer.deploy(deployer.place(plan), rp_prefix="q/")
        return env, deployer, plan, deployment

    def test_migrate_replays_to_the_exact_result(self):
        env, deployer, plan, deployment = self._deployed()
        deployment.start()
        env.sim.run(until=0.005)
        replacement, record = deployer.migrate(
            deployment, plan, "b@2", 3, rp_prefix="q+g1/"
        )
        assert record.ok and not record.rolled_back
        assert record.source == "bg:2" and record.target == "bg:3"
        assert record.time == pytest.approx(0.005)
        replacement.start()
        env.sim.run()
        report = replacement.finish()
        assert report.result == MERGE_RESULT
        assert report.rp_placements["b@2"] == "bg:3"

    def test_verifier_rejection_rolls_back(self):
        """Moving onto a node another live deployment holds trips SCSQ201;
        the deployment must come back at its original placement and still
        produce the exact result."""
        env, deployer, plan, deployment = self._deployed()
        occupant = deployer.deploy(
            deployer.place(compile_plan(self.OCCUPANT)), rp_prefix="o/"
        )
        deployment.start()
        occupant.start()
        env.sim.run(until=0.005)
        replacement, record = deployer.migrate(
            deployment, plan, "b@2", 5, rp_prefix="q+g1/"
        )
        assert record.rolled_back and not record.ok
        assert record.detail.startswith("error[SCSQ201]")
        assert "bg:5 selected by 'b@2' is already allocated" in record.detail
        assert replacement.rps["b@2"].node.node_id == "bg:2"
        replacement.start()
        env.sim.run()
        assert replacement.finish().result == MERGE_RESULT
        assert occupant.finish().result == [60]

    def test_noop_and_unknown_targets_rejected(self):
        env, deployer, plan, deployment = self._deployed()
        deployment.start()
        with pytest.raises(QueryExecutionError, match="current node"):
            deployer.migrate(deployment, plan, "b@2", 2, rp_prefix="q+g1/")
        with pytest.raises(QueryExecutionError, match="unknown stream"):
            deployer.migrate(deployment, plan, "z@9", 3, rp_prefix="q+g1/")

    def test_torn_down_deployment_rejected(self):
        env, deployer, plan, deployment = self._deployed()
        deployment.teardown()
        with pytest.raises(QueryExecutionError, match="torn-down"):
            deployer.migrate(deployment, plan, "b@2", 3, rp_prefix="q+g1/")

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_free_targets_always_verify(self, seed):
        """The acceptance property: a migration onto any free compute node
        re-verifies cleanly — no SCSQ103/201, no rollback — and replays to
        the exact result.  (The controller only ever proposes free nodes:
        ``_candidates`` reads the live CNDB.)"""
        env, deployer, plan, deployment = self._deployed()
        deployment.start()
        env.sim.run(until=0.005)
        taken = {rp.node.index for rp in deployment.rps.values()}
        free = [
            node.index
            for node in env.cndb("bg").all_nodes()
            if node.index not in taken
            and not node.failed
            and node.capabilities.can_compute
        ]
        target = random.Random(seed).choice(free)
        replacement, record = deployer.migrate(
            deployment, plan, "b@2", target, rp_prefix="q+g1/"
        )
        assert record.ok and not record.rolled_back
        assert "SCSQ" not in record.detail
        replacement.start()
        env.sim.run()
        assert replacement.finish().result == MERGE_RESULT
