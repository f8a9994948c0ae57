"""The dynamic sanitizer: SAN codes fire on seeded defects, real
lifecycles stay clean, and the chaos scheduler is wired correctly.

Every test that opens its own :func:`repro.analysis.sanitize.sanitizer`
scope (or deliberately builds wreckage) is marked ``no_sanitize`` so the
suite-wide ``--sanitize`` plugin mode does not double-audit it.
"""

import pytest

from repro.__main__ import main
from repro.analysis import sanitize
from repro.coordinator.deployer import Deployer
from repro.core.experiments.fig6 import point_to_point_query
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import Environment, EnvironmentConfig
from repro.obs import Instrumentation
from repro.obs.flow import FlowRecorder
from repro.scsql.plan import compile_plan
from repro.sim import ShuffleScheduler, Simulator
from repro.util.errors import SanitizationError
from tests.analysis.defects import DEFECTS

#: The exact code set each seeded-defect harness fires.  A leaked live
#: process (SAN201) necessarily also wedges the drained queue (SAN301),
#: so those two harnesses report both codes.
EXPECTED_CODES = {
    "SAN101": {"SAN101"},
    "SAN201": {"SAN201", "SAN301"},
    "SAN202": {"SAN202"},
    "SAN203": {"SAN203"},
    "SAN204": {"SAN204"},
    "SAN205": {"SAN205"},
    "SAN301": {"SAN201", "SAN301"},
}

MERGE_QUERY = """
select extract(c)
from sp a, sp b, sp c
where c=sp(count(merge({a,b})), 'bg', 0)
and a=sp(gen_array(100000,4), 'bg', 1)
and b=sp(gen_array(100000,4), 'bg', 2);
"""


def _deployed_fig6():
    env = Environment(EnvironmentConfig())
    deployer = Deployer(env)
    plan = compile_plan(point_to_point_query(1024, 8))
    deployment = deployer.deploy(deployer.place(plan))
    return env, deployer, plan, deployment


@pytest.mark.no_sanitize
class TestDefectHarnesses:
    """One intentional bug per code: the executable SAN specification."""

    @pytest.mark.parametrize("code", sorted(DEFECTS))
    def test_defect_fires_exactly_its_codes(self, code):
        report = DEFECTS[code]()
        fired = {diagnostic.code for diagnostic in report.diagnostics}
        assert fired == EXPECTED_CODES[code]
        assert not report.ok()

    def test_registry_covers_every_san_code(self):
        from repro.analysis.diagnostics import CATALOG

        san_codes = {code for code in CATALOG if code.startswith("SAN")}
        assert set(DEFECTS) == san_codes

    def test_defect_diagnostics_carry_messages(self):
        report = DEFECTS["SAN204"]()
        (diagnostic,) = report.diagnostics
        assert "defect->ghost" in diagnostic.message


@pytest.mark.no_sanitize
class TestListenerLifecycle:
    """External teardown reaps the deployment's own driver processes, and a
    migration leaves an instrumented environment quiescent."""

    def test_a_migration_ends_quiescent(self):
        env = Environment(
            EnvironmentConfig(), obs=Instrumentation(flows=FlowRecorder())
        )
        deployer = Deployer(env)
        plan = compile_plan(MERGE_QUERY)
        deployment = deployer.deploy(deployer.place(plan), rp_prefix="q/")
        deployment.start()
        env.sim.run(until=0.005)
        replacement, record = deployer.migrate(
            deployment, plan, "b@2", 3, rp_prefix="q+g1/"
        )
        assert record.ok
        replacement.start()
        env.sim.run()
        replacement.finish()
        replacement.teardown()
        sanitize.assert_quiescent(env)

    def test_external_teardown_interrupts_the_collector(self):
        """A deployment torn down mid-run must not leave its cm-collector
        blocked on the root result store (the leak SAN203 first caught)."""
        env, _deployer, _plan, deployment = _deployed_fig6()
        deployment.start()
        env.sim.run(until=1e-5)
        deployment.teardown()
        env.sim.run()
        sanitize.assert_quiescent(env)

    def test_a_single_buffered_receiver_killed_mid_stream_frees_the_coprocessor(self):
        """A deposit blocked on the dead receiver's only slot holds
        ``coproc[dst]``; ``Inbox.close()`` must wake it, processless or not."""
        settings = ExecutionSettings(mpi_buffer_bytes=100_000, double_buffering=False)
        env = Environment(EnvironmentConfig())
        deployer = Deployer(env)
        plan = compile_plan(point_to_point_query(300_000, 8), settings=settings)
        deployment = deployer.deploy(deployer.place(plan, settings=settings))
        deployment.start()
        inboxes = [port.inbox for rp in deployment.rps.values() for port in rp.input_ports]
        while not any(inbox.kernel_stores()[0].pending_gets for inbox in inboxes):
            env.sim.step()
        assert env.torus.coprocessor(0).count == 1  # held across the deposit
        deployment.teardown()
        env.sim.run()
        assert env.torus.coprocessor(0).count == 0
        assert [inbox.kernel_stores()[0].pending_gets for inbox in inboxes] == [0, 0]
        sanitize.assert_quiescent(env)

    def test_same_instant_teardown_never_starts_a_zombie(self):
        """Teardown before the driver's first step (a same-instant fault
        replan) must not let the driver start the RPs of a dead query."""
        env, _deployer, _plan, deployment = _deployed_fig6()
        deployment.start()
        deployment.teardown()
        env.sim.run()
        assert all(
            not rp.live_processes() for rp in deployment.rps.values()
        )
        sanitize.assert_quiescent(env)


@pytest.mark.no_sanitize
class TestSanitizerScope:
    def test_scope_enables_and_restores(self):
        assert not sanitize.enabled()
        with sanitize.sanitizer(label="scope-test", strict=False) as scope:
            assert sanitize.enabled()
            assert sanitize.current() is scope
        assert not sanitize.enabled()

    def test_scopes_do_not_nest(self):
        with sanitize.sanitizer(label="outer", strict=False):
            with pytest.raises(SanitizationError, match="nest"):
                with sanitize.sanitizer(label="inner"):
                    pass

    def test_strict_scope_raises_on_findings(self):
        """A finding recorded anywhere in the scope — here a torus
        registration no deployment owns, surfaced by the env-level
        quiescence audit — raises at scope exit."""
        with pytest.raises(SanitizationError) as excinfo:
            with sanitize.sanitizer(label="strict-test", strict=True):
                env, _deployer, _plan, deployment = _deployed_fig6()
                env.torus.register_stream(0, "leak->nowhere")
                deployment.run()
                deployment.teardown()
                sanitize.assert_quiescent(env, raise_on_findings=False)
        codes = {diagnostic.code for diagnostic in excinfo.value.diagnostics}
        assert "SAN204" in codes

    def test_clean_run_raises_nothing(self):
        with sanitize.sanitizer(label="clean-test", strict=True):
            env, _deployer, _plan, deployment = _deployed_fig6()
            deployment.run()
            deployment.teardown()
            sanitize.assert_quiescent(env)


@pytest.mark.no_sanitize
class TestChaosMode:
    def test_chaos_installs_a_seeded_shuffle_scheduler(self):
        with sanitize.chaos(5):
            scheduler = Simulator().scheduler
            assert isinstance(scheduler, ShuffleScheduler)
            assert scheduler.seed == 5
        assert not isinstance(Simulator().scheduler, ShuffleScheduler)

    def test_run_shuffled_accepts_an_order_independent_harness(self):
        def harness():
            sim = Simulator()
            seen = set()

            def note(tag):
                yield sim.timeout(0.0)
                seen.add(tag)

            for tag in range(6):
                sim.process(note(tag))
            sim.run()
            return sorted(seen)

        report, outcomes = sanitize.run_shuffled(
            harness, seeds=(0, 1, 2), label="order-independent"
        )
        assert report.diagnostics == []
        assert outcomes == [list(range(6))] * 3

    def test_run_shuffled_flags_an_order_dependent_harness(self):
        def harness():
            sim = Simulator()
            order = []

            def note(tag):
                yield sim.timeout(0.0)
                order.append(tag)

            for tag in range(8):
                sim.process(note(tag))
            sim.run()
            return tuple(order)

        report, _outcomes = sanitize.run_shuffled(
            harness, seeds=(0, 1, 2, 3), label="order-dependent"
        )
        assert {d.code for d in report.diagnostics} == {"SAN101"}


@pytest.mark.no_sanitize
class TestAssertQuiescent:
    def test_fresh_environment_is_quiescent(self):
        env = Environment(EnvironmentConfig())
        sanitize.assert_quiescent(env)


@pytest.mark.no_sanitize
class TestSingleQueryPathsAreAudited:
    """Regression: the sweep task and the power/throughput bench modes ran
    `Deployer.run` and never tore down, so `--sanitize` audited nothing on
    most of `bench` and reported a clean run of zero audits."""

    @staticmethod
    def _audited(harness):
        with sanitize.sanitizer(label="single-query", strict=False) as scope:
            harness()
        assert scope.report.ok(), scope.report.format_text()
        return scope.audited

    def test_sweep_task(self):
        from repro.core.parallel import SweepTask, run_sweep_task

        task = SweepTask(
            point_key="p2p", seed=0, query=point_to_point_query(1024, 8),
            payload_bytes=8 * 1024, observe="flows",
        )
        assert self._audited(lambda: run_sweep_task(task)) == 1

    def test_power_mode(self):
        from repro.bench.benchmark import run_power_mode
        from repro.bench.query_stream import SMOKE_SCALE

        assert self._audited(lambda: run_power_mode(SMOKE_SCALE)) >= 1

    def test_throughput_mode_audits_the_session_and_the_solo_baselines(self):
        from repro.bench.benchmark import run_throughput_mode
        from repro.bench.query_stream import SMOKE_SCALE

        audited = self._audited(
            lambda: run_throughput_mode(2, SMOKE_SCALE, rounds=1)
        )
        assert audited == 4  # two session deployments + two solo baselines

    def test_contention_demo_audits_the_session_and_the_solo_baselines(self):
        from repro.core.experiments import FIGURES
        from repro.core.measurement import run_sweep

        (multiquery,) = FIGURES["multiquery"]
        specs = multiquery.specs(**multiquery.quick)
        audited = self._audited(
            lambda: run_sweep(multiquery, **multiquery.quick, repeats=1)
        )
        # one teardown per deployed query: each session's and each solo point's
        assert audited == sum(spec.key.queries for spec in specs) == 17

    def test_top(self, capsys):
        assert self._audited(
            lambda: main(["top", "--point", "fig8", "--once"])
        ) == 1

    def test_cli_prints_the_audited_count(self, capsys):
        assert main(["bench", "--mode", "power", "--smoke", "--sanitize"]) == 0
        assert "sanitize: 3 teardown(s) audited" in capsys.readouterr().out

    def test_cli_fails_a_sanitized_run_that_audited_nothing(self, capsys, monkeypatch):
        from repro.bench import benchmark
        from repro.bench.benchmark import BenchReport

        monkeypatch.setattr(
            benchmark, "run_power_mode", lambda **_kwargs: BenchReport("power", {})
        )
        assert main(["bench", "--mode", "power", "--smoke", "--sanitize"]) == 1
        assert "sanitize: 0 teardown(s) audited" in capsys.readouterr().out
        # A usage error keeps its own exit code.
        assert main(["adaptive", "--point", "nope", "--sanitize"]) == 2

    def test_cli_fails_a_sanitized_run_with_findings(self, capsys, monkeypatch):
        """A teardown that leaves an inbox open (the SAN202 sabotage, run
        in the CLI's scope) exits 1 with the finding on stderr."""
        from repro.bench import benchmark
        from repro.bench.benchmark import BenchReport

        def sabotaged(**_kwargs):
            _env, _deployer, _plan, deployment = _deployed_fig6()
            deployment.run()
            for rp in deployment.rps.values():
                for port in rp.input_ports:
                    port.inbox.close = lambda: None
            deployment.teardown()
            return BenchReport("power", {})

        monkeypatch.setattr(benchmark, "run_power_mode", sabotaged)
        assert main(["bench", "--mode", "power", "--smoke", "--sanitize"]) == 1
        out, err = capsys.readouterr()
        assert "sanitize: 1 teardown(s) audited" in out
        assert "SAN202" in err

    def test_cli_usage_error_reports_no_audit(self, capsys):
        """`bench --sanitize` with nothing to do started no run: the usage
        error is its one outcome, with no audit line after it."""
        assert main(["bench", "--only", "fig6", "--sanitize"]) == 2
        out, err = capsys.readouterr()
        assert "bench: nothing to do" in err
        assert "audited" not in out

    def test_stop_condition_drain_is_reaped_by_teardown(self):
        """Found by the audits above under chaos seeds 0 and 2 (SAN203 on
        the adaptive figure): `cancel_subscriber` spawns a drain process
        that blocks on the cancelled feed forever, and `terminate()` did
        not know it."""
        query = (
            "select extract(b) from sp a, sp b "
            "where b=sp(count(first(extract(a), 25)), 'bg', 0) "
            "and a=sp(gen_array(1000,-1), 'bg', 1);"
        )
        with sanitize.sanitizer(label="drain", strict=True):
            env = Environment(EnvironmentConfig())
            deployer = Deployer(env)
            assert deployer.run(compile_plan(query)).result == [25]
            deployer.teardown()
            env.sim.run()  # deliver teardown's interrupts
            sanitize.assert_quiescent(env)


def _leak_a_carrier(tag):
    """A picklable task (for `SweepExecutor.map`) whose teardown leaves a
    torus stream registered — SAN204 in whichever scope it runs under."""
    env, _deployer, _plan, deployment = _deployed_fig6()
    deployment.run()
    env.torus.register_stream(0, f"ghost-{tag}")
    deployment.teardown()
    sanitize.assert_quiescent(env, raise_on_findings=False)
    return tag, sanitize.chaos_seed(), type(env.sim.scheduler).__name__


@pytest.mark.no_sanitize
class TestWorkersAreAudited:
    """Regression: the sanitizer scope and the chaos override are
    module-global and never reached `spawn` workers, so `bench --only fig6
    --jobs 2 --sanitize` audited nothing and exited 1."""

    def test_a_leak_in_a_worker_lands_in_the_parents_report(self):
        from repro.core.parallel import SweepExecutor

        with sanitize.sanitizer(label="workers", strict=False) as scope:
            with sanitize.chaos(seed=7):
                results = SweepExecutor(jobs=2).map(_leak_a_carrier, ["a", "b"])
        # in task order, each run under the parent's chaos seed
        assert results == [("a", 7, "ShuffleScheduler"), ("b", 7, "ShuffleScheduler")]
        assert scope.audited == 2
        leaks = [d.message for d in scope.report.diagnostics if d.code == "SAN204"]
        assert any("ghost-a" in m for m in leaks) and any("ghost-b" in m for m in leaks)

    def test_an_unscoped_parent_opens_no_scope_in_the_worker(self):
        from repro.core.parallel import SweepExecutor

        results = SweepExecutor(jobs=2).map(_leak_a_carrier, ["a", "b"])
        assert results == [("a", None, "CalendarQueue"), ("b", None, "CalendarQueue")]

    def test_sweep_is_audited_alike_at_any_job_count(self):
        from repro.core.experiments import FIGURES
        from repro.core.measurement import run_sweep

        def audited(jobs):
            with sanitize.sanitizer(label="sweep", strict=False) as scope:
                result = run_sweep(
                    FIGURES["fig6"][0], buffer_sizes=(1000,), target_buffers=60,
                    repeats=1, jobs=jobs, observe="flows",
                )
            assert scope.report.ok(), scope.report.format_text()
            return scope.audited, [p.mbps.samples for p in result.points.values()]

        assert audited(1) == audited(2)
        assert audited(2)[0] == 2
