"""The parallel sweep executor: determinism, merge order, observation.

The tentpole guarantee under test: fanning a sweep over worker processes
is **bit-identical** to running it serially — same mbps samples, same
flow-latency percentiles — because both paths execute the same
:func:`repro.core.parallel.run_sweep_task` on the same ``(point, seed)``
payloads and merge outcomes in task order, never completion order.
"""

import pytest

from repro.bench.baseline import physics_digest
from repro.coordinator.deployer import ExecutionReport
from repro.core.experiments.ablations import automatic_inbound_query
from repro.core.experiments.fig6 import point_to_point_query, scaled_workload
from repro.core.experiments.fig8 import SEQUENTIAL, merge_query
from repro.core.experiments.fig15 import inbound_query
from repro.core.measurement import PointSpec, measure_points
from repro.core.parallel import (
    Deployer,
    SweepExecutor,
    SweepTask,
    run_sweep_task,
)
from repro.engine.settings import ExecutionSettings
from repro.obs.instrument import (
    LIVE_HUB_LEVELS,
    OBSERVE_FLOWS,
    OBSERVE_LEVELS,
    OBSERVE_NONE,
)
from repro.scsql.plan import compile_plan
from repro.util.errors import MeasurementError
from repro.util.stats import percentile


def _digest(obs, report) -> str:
    """The physics digest of one observed repeat: what it delivered, when."""
    return physics_digest([(obs.flows.completed, report.result)])


def _small_specs():
    """A tiny fig6 + fig15 subset: fast, but exercises both the intra-BG
    p2p path and the Ethernet-ingress inbound path."""
    array_bytes, count = scaled_workload(1000, target_buffers=40)
    return [
        PointSpec(
            key=("fig6", 1000),
            query=point_to_point_query(array_bytes, count),
            payload_bytes=array_bytes * count,
            settings=ExecutionSettings(mpi_buffer_bytes=1000, double_buffering=True),
        ),
        PointSpec(
            key=("fig15", 5, 2),
            query=inbound_query(5, 2, 100_000, 2),
            payload_bytes=2 * 100_000 * 2,
            settings=ExecutionSettings(),
        ),
    ]


def _family_specs():
    """One sample point of each sweep family: fig6, fig8, fig15 and the
    selector ablation (the only family placed by a named selector)."""
    array_bytes, count = scaled_workload(100_000, target_buffers=8)
    return _small_specs() + [
        PointSpec(
            key=("fig8", "seq"),
            query=merge_query(array_bytes, count, *SEQUENTIAL),
            payload_bytes=2 * array_bytes * count,
            settings=ExecutionSettings(mpi_buffer_bytes=100_000, double_buffering=True),
        ),
        PointSpec(
            key=("knowledge", 2),
            query=automatic_inbound_query(2, 100_000, 2),
            payload_bytes=2 * 100_000 * 2,
            selector="knowledge",
        ),
    ]


class TestExecutor:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            SweepExecutor(0)

    def test_outcomes_keep_task_order(self):
        array_bytes, count = scaled_workload(1000, target_buffers=20)
        tasks = [
            SweepTask(
                point_key=f"p{seed}",
                seed=seed,
                query=point_to_point_query(array_bytes, count),
                payload_bytes=array_bytes * count,
            )
            for seed in (3, 1, 2)
        ]
        outcomes = SweepExecutor(jobs=1).run(tasks)
        assert [o.point_key for o in outcomes] == ["p3", "p1", "p2"]
        assert [o.seed for o in outcomes] == [3, 1, 2]

    def test_single_task_runs_inline_even_with_jobs(self):
        array_bytes, count = scaled_workload(1000, target_buffers=20)
        task = SweepTask(
            point_key="only",
            seed=0,
            query=point_to_point_query(array_bytes, count),
            payload_bytes=array_bytes * count,
        )
        (outcome,) = SweepExecutor(jobs=8).run([task])
        assert outcome.report.duration > 0.0

    def test_unobserved_task_has_no_observation(self):
        array_bytes, count = scaled_workload(1000, target_buffers=20)
        outcome = run_sweep_task(
            SweepTask(
                point_key="k",
                seed=0,
                query=point_to_point_query(array_bytes, count),
                payload_bytes=array_bytes * count,
                observe=OBSERVE_NONE,
            )
        )
        assert outcome.observation() is None
        assert outcome.flow_records == []

    def test_observed_task_ships_flow_records(self):
        array_bytes, count = scaled_workload(1000, target_buffers=20)
        outcome = run_sweep_task(
            SweepTask(
                point_key="k",
                seed=0,
                query=point_to_point_query(array_bytes, count),
                payload_bytes=array_bytes * count,
                observe=OBSERVE_FLOWS,
            )
        )
        assert outcome.flow_records
        obs = outcome.observation()
        assert obs is not None
        # Latencies come straight off the shipped records (some records,
        # e.g. EOS markers, carry no measurable latency and are filtered).
        assert obs.flows.latencies()
        assert len(obs.flows.latencies()) <= len(outcome.flow_records)

    def test_observation_is_live_here_and_rebuilt_across_a_boundary(self):
        import pickle

        array_bytes, count = scaled_workload(1000, target_buffers=20)
        outcome = run_sweep_task(
            SweepTask(
                point_key="k",
                seed=0,
                query=point_to_point_query(array_bytes, count),
                payload_bytes=array_bytes * count,
                observe=OBSERVE_FLOWS,
            )
        )
        live = outcome.observation()
        assert live.sim is not None  # the hub that watched the run
        assert outcome.observation() is live
        shipped = pickle.loads(pickle.dumps(outcome))  # what a worker returns
        rebuilt = shipped.observation()
        assert rebuilt.sim is None and rebuilt is not live
        assert shipped.observation() is rebuilt
        assert rebuilt.flows.latencies() == live.flows.latencies()
        assert shipped.report.rp_statistics == outcome.report.rp_statistics
        assert _digest(rebuilt, shipped.report) == _digest(live, outcome.report)

    def test_live_hub_levels_never_reach_the_pool(self, monkeypatch):
        array_bytes, count = scaled_workload(1000, target_buffers=20)

        def tasks(level):
            return [
                SweepTask(
                    point_key=seed,
                    seed=seed,
                    query=point_to_point_query(array_bytes, count),
                    payload_bytes=array_bytes * count,
                    observe=level,
                )
                for seed in (0, 1)
            ]

        pooled = []
        monkeypatch.setattr(
            SweepExecutor, "map",
            lambda self, fn, items: pooled.append(len(items)) or [fn(i) for i in items],
        )
        for level in OBSERVE_LEVELS:
            outcomes = SweepExecutor(jobs=2).run(tasks(level))
            assert [o.seed for o in outcomes] == [0, 1]
        # none and flows went through the fan-out; metrics and trace did not.
        assert pooled == [2] * (len(OBSERVE_LEVELS) - len(LIVE_HUB_LEVELS))


class TestWorkerPath:
    """run_sweep_task IS the worker: its own guards and plan handling."""

    def test_precompiled_plan_matches_text_compilation(self):
        array_bytes, count = scaled_workload(1000, target_buffers=20)
        query = point_to_point_query(array_bytes, count)
        base = dict(
            point_key="k", seed=0, query=query, payload_bytes=array_bytes * count
        )
        from_text = run_sweep_task(SweepTask(**base))
        from_plan = run_sweep_task(SweepTask(**base, plan=compile_plan(query)))
        assert from_plan.report.duration == from_text.report.duration
        assert from_plan.report.rp_placements == from_text.report.rp_placements

    def test_non_positive_duration_raises(self, monkeypatch):
        # The guard lives in the worker path itself (not just the result
        # assembly), so a degenerate run fails loudly inside the worker.
        monkeypatch.setattr(
            Deployer,
            "run",
            lambda self, plan, strategy=None, settings=None, stop_after=None: (
                ExecutionReport(result=[1], duration=0.0)
            ),
        )
        array_bytes, count = scaled_workload(1000, target_buffers=20)
        task = SweepTask(
            point_key="degenerate",
            seed=0,
            query=point_to_point_query(array_bytes, count),
            payload_bytes=array_bytes * count,
        )
        with pytest.raises(MeasurementError, match="non-positive"):
            run_sweep_task(task)


class TestParallelDeterminism:
    """jobs=1 and jobs=4 must agree bit for bit (acceptance criterion)."""

    def test_parallel_matches_serial_exactly(self):
        specs = _small_specs()
        serial = measure_points(specs, repeats=2, jobs=1, observe=OBSERVE_FLOWS)
        fanned = measure_points(specs, repeats=2, jobs=4, observe=OBSERVE_FLOWS)
        assert set(serial) == set(fanned) == {spec.key for spec in specs}
        for key in serial:
            # Bandwidth samples: identical floats, in identical seed order.
            assert serial[key].mbps.samples == fanned[key].mbps.samples
            assert serial[key].mbps.mean == fanned[key].mbps.mean
            # Flow-latency percentiles: identical floats.
            serial_lat = serial[key].flow_latencies()
            fanned_lat = fanned[key].flow_latencies()
            assert serial_lat == fanned_lat
            assert serial_lat  # the flows observation actually recorded
            for q in (50.0, 95.0):
                assert percentile(serial_lat, q) == percentile(fanned_lat, q)
            # Per-repeat simulated physics survives the process boundary.
            for left, right, left_obs, right_obs in zip(
                serial[key].reports, fanned[key].reports,
                serial[key].observations, fanned[key].observations, strict=True,
            ):
                assert left.duration == right.duration
                assert left.rp_statistics == right.rp_statistics
                assert _digest(left_obs, left) == _digest(right_obs, right)


    @pytest.mark.parametrize("level", OBSERVE_LEVELS)
    def test_every_family_and_level_matches_serial_exactly(self, level):
        """One sample point per family, at every observation level: the
        fanned-out sweep is the serial one, float for float."""
        specs = _family_specs()
        serial = measure_points(specs, repeats=1, jobs=1, observe=level)
        fanned = measure_points(specs, repeats=1, jobs=2, observe=level)
        assert list(serial) == list(fanned) == [spec.key for spec in specs]
        for key in serial:
            assert serial[key].mbps.samples == fanned[key].mbps.samples
            assert len(serial[key].observations) == len(fanned[key].observations) == (
                0 if level == OBSERVE_NONE else 1
            )
            for left, right in zip(serial[key].reports, fanned[key].reports):
                assert left.duration == right.duration
                assert left.result == right.result
                assert left.rp_placements == right.rp_placements
                assert left.rp_statistics == right.rp_statistics
            for left, right, left_obs, right_obs in zip(
                serial[key].reports, fanned[key].reports,
                serial[key].observations, fanned[key].observations,
            ):
                if level in LIVE_HUB_LEVELS:  # both ran in this process
                    assert left_obs.snapshot().counters == right_obs.snapshot().counters
                else:  # the fanned-out hub was rebuilt from shipped records
                    assert _digest(left_obs, left) == _digest(right_obs, right)
            serial_lat = serial[key].flow_latencies()
            assert serial_lat == fanned[key].flow_latencies()
            assert bool(serial_lat) == (level in ("flows", "trace"))


class TestFaultedParallelDeterminism:
    """The jobs=1 == jobs=N proof extended to fault-injected runs.

    A faulted repeat adds seeded victim selection, mid-run teardown, and a
    replacement deployment to the pipeline; all of it must still be a pure
    function of the task payload, so fanning repeats over processes cannot
    change a single float of the recovery metrics.
    """

    def test_faulted_repeats_match_serial_exactly(self):
        from repro.bench.faults import FaultTask, run_fault_task
        from repro.bench.query_stream import SMOKE_SCALE

        tasks = [
            FaultTask(seed=seed, streams=2, scenario="kill-node", scale=SMOKE_SCALE)
            for seed in (0, 1)
        ]
        serial = SweepExecutor(jobs=1).map(run_fault_task, tasks)
        fanned = SweepExecutor(jobs=2).map(run_fault_task, tasks)
        assert len(serial) == len(fanned) == len(tasks)
        for left, right in zip(serial, fanned):
            assert left.results_ok and right.results_ok
            # Float-exact agreement on every recovery metric.
            assert left.fault_time == right.fault_time
            assert left.recovery_s == right.recovery_s
            assert left.bandwidth_retained == right.bandwidth_retained
            assert left.per_stream_mbps == right.per_stream_mbps
            assert left.healthy_makespan == right.healthy_makespan
            assert left.faulted_makespan == right.faulted_makespan
            # And on the injected failure itself.
            assert left.failed_nodes == right.failed_nodes
            assert left.replacements == right.replacements

    def test_composite_scenarios_match_serial_exactly(self):
        """Correlated and flapping schedules derive from the healthy
        makespan inside the worker — still a pure function of the task, so
        multi-event composites fan out bit-identically too."""
        from repro.bench.faults import FaultTask, run_fault_task
        from repro.bench.query_stream import SMOKE_SCALE

        tasks = [
            FaultTask(seed=0, streams=2, scenario="correlated", scale=SMOKE_SCALE),
            FaultTask(seed=1, streams=2, scenario="flapping", scale=SMOKE_SCALE),
        ]
        serial = SweepExecutor(jobs=1).map(run_fault_task, tasks)
        fanned = SweepExecutor(jobs=2).map(run_fault_task, tasks)
        for left, right in zip(serial, fanned):
            assert left.results_ok and right.results_ok
            assert left.fault_time == right.fault_time
            assert left.recovery_s == right.recovery_s
            assert left.per_stream_mbps == right.per_stream_mbps
            assert left.faulted_makespan == right.faulted_makespan
            assert left.failed_nodes == right.failed_nodes
            assert left.degraded == right.degraded
            assert left.restored == right.restored
            assert left.replacements == right.replacements
