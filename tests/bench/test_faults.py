"""Fault injection: schedules, scenarios, recovery metrics, and the gate.

The tentpole behaviours under test: a seed-driven schedule kills or
degrades hardware mid-run; the victim streams are torn down, replanned
around the damage, and still produce exact results; recovery time and the
bandwidth dip are measured deterministically; and a recovery that differs
from its baseline fails the ``repro bench`` gate's exit code.
"""

import pytest

from repro.__main__ import main
from repro.analysis import sanitize
from repro.bench.baseline import load_bench, write_bench
from repro.bench.faults import (
    FLAPPING_CYCLES,
    FaultEvent,
    FaultSchedule,
    FaultTask,
    fault_queries,
    run_fault_task,
    run_faulted_session,
)
from repro.bench.query_stream import (
    SMOKE_SCALE,
    BenchQuery,
    build_query,
    registered,
)
from repro.core.experiments.fig15 import inbound_query
from repro.core.multiquery import MultiQuerySession
from repro.hardware.environment import Environment, EnvironmentConfig
from repro.obs import Instrumentation, profile_flows
from repro.obs.instrument import instrumentation_for
from repro.obs.tracer import NULL_TRACER
from repro.scsql.plan import compile_plan
from repro.util.errors import QueryExecutionError, ReproError


class TestScheduleValidation:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(QueryExecutionError, match="scenario"):
            FaultEvent(0.1, "unplug-everything")

    def test_negative_time_rejected(self):
        with pytest.raises(QueryExecutionError, match="fault time"):
            FaultEvent(-0.1, "kill-node")

    def test_speedup_factor_rejected(self):
        with pytest.raises(QueryExecutionError, match="factor"):
            FaultEvent(0.1, "degrade-link", factor=0.5)

    def test_events_must_be_time_ordered(self):
        with pytest.raises(QueryExecutionError, match="time-ordered"):
            FaultSchedule(
                events=(FaultEvent(0.2, "kill-node"), FaultEvent(0.1, "kill-node"))
            )

    def test_with_seed_replaces_only_the_seed(self):
        schedule = FaultSchedule.single("kill-node", 0.5, seed=1)
        reseeded = schedule.with_seed(9)
        assert reseeded.seed == 9
        assert reseeded.events == schedule.events

    def test_task_validates_coordinates(self):
        with pytest.raises(QueryExecutionError, match="stream"):
            FaultTask(seed=0, streams=0, scenario="kill-node")
        with pytest.raises(QueryExecutionError, match="at_fraction"):
            FaultTask(seed=0, streams=1, scenario="kill-node", at_fraction=1.5)
        with pytest.raises(QueryExecutionError, match="scenario"):
            FaultTask(seed=0, streams=1, scenario="meteor")

    def test_restore_events_are_schedulable(self):
        # Repair events validate like any other; composites are task-level
        # recipes, not raw events.
        assert FaultEvent(0.2, "restore-uplink").replan
        assert FaultEvent(0.2, "restore-link").factor
        with pytest.raises(QueryExecutionError, match="scenario"):
            FaultEvent(0.2, "correlated")

    def test_composite_scenarios_are_tasks(self):
        assert FaultTask(seed=0, streams=1, scenario="correlated")
        assert FaultTask(seed=0, streams=1, scenario="flapping")

    def test_correlated_schedule_strikes_in_one_window(self):
        schedule = FaultSchedule.correlated(0.4, seed=3, factor=4.0)
        assert [e.scenario for e in schedule.events] == [
            "kill-node", "degrade-uplink",
        ]
        assert all(e.time == 0.4 for e in schedule.events)
        assert all(e.replan for e in schedule.events)

    def test_flapping_schedule_alternates_without_replanning(self):
        schedule = FaultSchedule.flapping(0.1, period=0.02, cycles=3)
        assert len(schedule.events) == 6
        assert [e.scenario for e in schedule.events] == [
            "degrade-uplink", "restore-uplink",
        ] * 3
        assert not any(e.replan for e in schedule.events)
        times = [e.time for e in schedule.events]
        assert times == sorted(times)

    def test_flapping_validates_period_and_cycles(self):
        with pytest.raises(QueryExecutionError, match="period"):
            FaultSchedule.flapping(0.1, period=0.0)
        with pytest.raises(QueryExecutionError, match="cycle"):
            FaultSchedule.flapping(0.1, period=0.02, cycles=0)


class TestScenarios:
    def test_kill_node_recovers_with_exact_results(self):
        outcome = run_fault_task(
            FaultTask(seed=0, streams=2, scenario="kill-node", scale=SMOKE_SCALE)
        )
        assert outcome.results_ok
        assert len(outcome.failed_nodes) == 1
        assert outcome.failed_nodes[0].startswith("bg:")
        assert outcome.replacements
        assert outcome.recovery_s > 0.0
        # The restart costs bandwidth: the faulted run takes longer than
        # the healthy one, never less.
        assert outcome.faulted_makespan > outcome.healthy_makespan
        assert 0.0 < outcome.bandwidth_retained < 1.0
        assert all(mbps > 0.0 for mbps in outcome.per_stream_mbps.values())

    def test_kill_io_node_fails_the_whole_pset(self):
        outcome = run_fault_task(
            FaultTask(seed=1, streams=2, scenario="kill-io-node", scale=SMOKE_SCALE)
        )
        assert outcome.results_ok
        # A pset of 8 compute nodes plus its I/O node.
        assert len(outcome.failed_nodes) == 9
        assert sum(1 for n in outcome.failed_nodes if n.startswith("bg-io:")) == 1

    def test_degrade_link_slows_a_route(self):
        outcome = run_fault_task(
            FaultTask(seed=1, streams=2, scenario="degrade-link", scale=SMOKE_SCALE)
        )
        assert outcome.results_ok
        assert not outcome.failed_nodes
        assert outcome.degraded
        assert all(d.startswith("torus ") for d in outcome.degraded)

    def test_degrade_uplink_slows_the_ingress(self):
        outcome = run_fault_task(
            FaultTask(seed=1, streams=2, scenario="degrade-uplink", scale=SMOKE_SCALE)
        )
        assert outcome.results_ok
        assert outcome.degraded == ["eth uplink x8"]

    def test_correlated_cascade_replans_around_both_faults(self):
        """kill-node + degrade-uplink in one window: the victim replans
        around the dead node while every stream rides the slowed ingress."""
        outcome = run_fault_task(
            FaultTask(seed=0, streams=2, scenario="correlated", scale=SMOKE_SCALE)
        )
        assert outcome.results_ok
        assert len(outcome.failed_nodes) == 1
        assert "eth uplink x8" in outcome.degraded
        assert outcome.replacements
        assert outcome.faulted_makespan > outcome.healthy_makespan

    def test_flapping_transients_ride_out_without_replanning(self):
        """Degrade/restore cycles never tear a stream down: the run rides
        each dip out in place, and every result stays exact."""
        outcome = run_fault_task(
            FaultTask(seed=1, streams=2, scenario="flapping", scale=SMOKE_SCALE)
        )
        assert outcome.results_ok
        assert not outcome.replacements and not outcome.failed_nodes
        assert len(outcome.degraded) == FLAPPING_CYCLES
        assert len(outcome.restored) == FLAPPING_CYCLES
        assert all("restored" in entry for entry in outcome.restored)
        # Without a replacement there is no recovery signal to measure.
        assert outcome.recovery_s == 0.0
        assert outcome.faulted_makespan >= outcome.healthy_makespan

    def test_same_seed_reproduces_identical_numbers(self):
        task = FaultTask(seed=4, streams=3, scenario="kill-node", scale=SMOKE_SCALE)
        first = run_fault_task(task)
        second = run_fault_task(task)
        assert first.recovery_s == second.recovery_s
        assert first.bandwidth_retained == second.bandwidth_retained
        assert first.per_stream_mbps == second.per_stream_mbps
        assert first.failed_nodes == second.failed_nodes
        assert first.replacements == second.replacements

    def test_empty_schedule_is_a_healthy_run(self):
        queries = [build_query("grep", 0, SMOKE_SCALE)]
        env = Environment(EnvironmentConfig())
        result = run_faulted_session(env, queries, FaultSchedule())
        assert result.fault_time is None
        assert result.recovery_s == 0.0
        assert not result.failed_nodes and not result.replacements
        assert result.reports["s0"].result == [queries[0].expected_result]


class TestHarnessIsASession:
    """The harness is a MultiQuerySession plus a schedule, nothing more."""

    @pytest.mark.parametrize("observe", ["none", "flows"])
    @pytest.mark.parametrize("seed,streams", [(0, 1), (1, 2), (4, 3)])
    def test_healthy_run_equals_a_plain_session(self, seed, streams, observe):
        """Empty schedule: float for float what submit/run over the same
        labels reports, hooks off and on."""
        queries = fault_queries(FaultTask(
            seed=seed, streams=streams, scenario="kill-node", scale=SMOKE_SCALE,
        ))
        config = EnvironmentConfig().with_seed(seed)

        def fresh_env():
            return Environment(config, obs=instrumentation_for(observe))

        with registered(queries):
            harness = run_faulted_session(fresh_env(), queries, FaultSchedule())
            session = MultiQuerySession(fresh_env())
            for query in queries:
                session.submit(
                    compile_plan(query.query),
                    payload_bytes=query.payload_bytes,
                    label=f"s{query.stream_id}",
                )
            plain = session.run()
            session.teardown()
        assert list(harness.reports) == [o.label for o in plain.outcomes]
        for outcome in plain.outcomes:
            report = harness.reports[outcome.label]
            assert report.result == outcome.report.result
            assert report.duration == outcome.report.duration
            assert report.rp_placements == outcome.report.rp_placements
            assert report.bytes_sent == outcome.report.bytes_sent
            assert harness.completions[outcome.label] == outcome.report.duration
        assert harness.makespan == max(o.report.duration for o in plain.outcomes)
        assert (observe == "flows") == bool(harness.flow_records)

    #: A stream that pins both its nodes: killing one leaves no replan.
    PINNED = """
    select extract(b) from sp a, sp b
    where b=sp(count(extract(a)), 'bg', 0)
    and a=sp(gen_array(100000,20), 'bg', 1);
    """

    def _pinned_pair(self):
        free = self.PINNED.replace("'bg', 0", "'bg'").replace("'bg', 1", "'bg'")
        return [
            BenchQuery(kind="p2p", stream_id=k, query=text,
                       payload_bytes=2_000_000, sources={})
            for k, text in enumerate([self.PINNED, free])
        ]

    def test_unplaceable_replan_is_a_typed_error_and_a_quiescent_env(self):
        """The victim pins the node the fault killed: the replan cannot
        deploy.  The harness raises what the verifier would report — the
        node has failed; nobody "already allocated" it — and still hands
        back an environment with every stream stopped and every slot
        returned."""
        env = Environment(
            EnvironmentConfig(), obs=Instrumentation(tracer=NULL_TRACER)
        )
        schedule = FaultSchedule.single("kill-node", 0.002, target=1)
        with pytest.raises(ReproError) as raised:
            run_faulted_session(env, self._pinned_pair(), schedule)
        assert [found.code for found in raised.value.diagnostics] == ["SCSQ108"]
        assert "bg:1" in str(raised.value) and "has failed" in str(raised.value)
        assert "already allocated" not in str(raised.value)
        sanitize.assert_quiescent(env)
        # Nothing is left running: the queue holds only the torn-down
        # streams' last in-flight buffers, and draining it leaks nothing.
        stopped_at = env.sim.now
        env.sim.run()
        assert env.sim.now - stopped_at < 1e-3
        sanitize.assert_quiescent(env)

    def test_survivable_kill_leaves_a_quiescent_env(self):
        env = Environment(
            EnvironmentConfig(), obs=Instrumentation(tracer=NULL_TRACER)
        )
        queries = self._pinned_pair()[1:]
        healthy = run_faulted_session(
            Environment(EnvironmentConfig()), queries, FaultSchedule()
        )
        result = run_faulted_session(
            env, queries,
            FaultSchedule.single("kill-node", 0.5 * healthy.makespan),
        )
        assert result.replacements == ["s1+r1/"]
        assert result.reports["s1"].result == [20]
        assert env.sim.peek() == float("inf")
        sanitize.assert_quiescent(env)


class TestPostFailureBottleneck:
    def test_replacement_proxy_tops_the_ranking_after_pset_kill(self):
        """Fig 15 Q5 n=5: the shared pset-0 I/O proxy is the bottleneck;
        after pset 0 dies mid-run, the replanned receivers funnel through
        a *different* proxy, and the profiler must name it."""
        query = BenchQuery(
            kind="fig15",
            stream_id=0,
            query=inbound_query(5, 5, 50_000, 2),
            payload_bytes=5 * 50_000 * 2,
            sources={},
        )

        def flows_env():
            return Environment(
                EnvironmentConfig(), obs=Instrumentation(tracer=NULL_TRACER)
            )

        healthy = run_faulted_session(flows_env(), [query], FaultSchedule())
        pre_report = profile_flows(
            [r for r in healthy.flow_records if not r.eos]
        )
        pre_proxy = pre_report.bottleneck.resource
        assert pre_proxy.startswith("io-proxy[")
        doomed_pset = int(pre_proxy[len("io-proxy[") : -1])

        schedule = FaultSchedule.single(
            "kill-io-node", 0.5 * healthy.makespan, seed=0, target=doomed_pset
        )
        faulted = run_faulted_session(flows_env(), [query], schedule)
        assert faulted.replacements == ["s0+r1/"]
        assert f"bg-io:{doomed_pset}" in faulted.failed_nodes
        post_report = profile_flows(
            [
                r
                for r in faulted.flow_records
                if not r.eos and "+r" in r.stream_id
            ]
        )
        assert post_report.bottleneck.resource.startswith("io-proxy[")
        assert post_report.bottleneck.resource != pre_proxy
        assert faulted.reports["s0"].result == healthy.reports["s0"].result


class TestGateExitCode:
    def test_cli_fails_when_recovery_regresses(self, tmp_path):
        current = run_fault_task(
            FaultTask(seed=0, streams=2, scenario="kill-node", scale=SMOKE_SCALE)
        )
        tag = "fault[kill-node,n=2]"
        good = {
            f"{tag}/recovery_s": current.recovery_s,
            f"{tag}/retained_ratio": current.bandwidth_retained,
        }
        argv = [
            "bench", "--mode", "throughput", "--streams", "2",
            "--fault", "kill-node", "--smoke", "--seed", "0",
        ]
        baseline = tmp_path / "BENCH_baseline.json"
        write_bench(str(baseline), good, repeats=1)
        assert main(argv + ["--baseline", str(baseline)]) == 0

        # A baseline whose recovery was half the current value: the run's
        # recovery differs from it, so the gate fails.
        doctored = dict(good)
        doctored[f"{tag}/recovery_s"] = current.recovery_s * 0.5
        write_bench(str(baseline), doctored, repeats=1)
        assert main(argv + ["--baseline", str(baseline)]) == 1

    def test_zero_recovery_baseline_gates_without_a_traceback(self, tmp_path, capsys):
        """Flapping never replans, so it records recovery_s = 0.0: a zero
        baseline, which the gate compares like any other value."""
        argv = [
            "bench", "--mode", "throughput", "--streams", "2",
            "--fault", "flapping", "--smoke",
        ]
        baseline = tmp_path / "flapping.json"
        assert main(argv + ["--out", str(baseline)]) == 0
        assert load_bench(str(baseline))["fault[flapping,n=2]/recovery_s"] == 0.0
        capsys.readouterr()
        assert main(argv + ["--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "fault[flapping,n=2]/recovery_s: 0.0 equal" in out
        assert "=> 0 of 6 baseline metric(s) differ" in out
