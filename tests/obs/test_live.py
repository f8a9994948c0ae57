"""The live telemetry plane: windowed sampling, health events, zero cost.

Covers the tentpole invariants of the streaming sampler:

* window accounting is lossless — every processed event and completed
  flow lands in exactly one ``[start, end)`` window;
* the sampler adds **zero simulation events**, enabled or not (it
  piggybacks on the kernel's ``on_step`` hook instead of scheduling);
* for a fixed seed the windowed p95 series and health-event sequence
  are deterministic;
* on the paper's Figure 15 Q5 n=5 run the continuous detector flags the
  shared I/O proxy as saturated *mid-run* and names the same culprit as
  the post-hoc critical-path profile;
* a kill-node fault emits ``degraded`` -> ``recovered`` health events
  bracketing the replan;
* the new obs modules stay clean under the DET001-005 determinism rules
  (checked as if they lived in a hot-path package).
"""

import pytest

from repro.core.experiments.fig15 import inbound_query
from repro.hardware.environment import (
    Environment,
    EnvironmentConfig,
    shared_template,
)
from repro.obs import Instrumentation
from repro.obs.flow import NULL_FLOWS
from repro.obs.health import ContinuousBottleneckDetector, HealthEvent, resource_scope
from repro.obs.live import DEFAULT_WINDOW, NULL_LIVE, LiveSampler, NullLiveSampler
from repro.obs.profile import profile
from repro.obs.tracer import NULL_TRACER
from repro.scsql.session import SCSQSession
from tests.test_removed_surface import ROOT, det_findings

FIG15_QUERY = inbound_query(5, 5, 300_000, 3)


def run_q5_point(sampler=None, seed=0, flows=None):
    """One Fig 15 Q5 n=5 run; returns (report, obs)."""
    config = EnvironmentConfig().with_seed(seed)
    obs = Instrumentation(tracer=NULL_TRACER, flows=flows, live=sampler)
    env = Environment(config, obs=obs, template=shared_template(config))
    report = SCSQSession(env).execute(FIG15_QUERY)
    if sampler is not None:
        sampler.finalize(env.sim.now)
    return report, obs


@pytest.fixture(scope="module")
def fig15_live():
    """One sampled Fig 15 run shared by the read-only assertions."""
    sampler = LiveSampler(window=DEFAULT_WINDOW)
    report, obs = run_q5_point(sampler)
    return sampler, report, obs


class TestNullSampler:
    def test_shared_disabled_singleton(self):
        assert not NULL_LIVE.enabled
        assert Instrumentation(tracer=NULL_TRACER).live is NULL_LIVE
        assert NULL_LIVE.windows == []
        assert NULL_LIVE.health_events == []

    def test_null_hooks_are_noops(self):
        null = NullLiveSampler()
        null.on_step(1.0)
        null.on_failure("x", "node")
        null.note_capacity("cpu[0]", 2.0)
        null.finalize()
        assert null.window == 0.0

    def test_disabled_sampler_changes_nothing(self):
        """With live off the run is identical to a metrics-only run."""
        baseline, base_obs = run_q5_point(None)
        sampled, live_obs = run_q5_point(LiveSampler(window=DEFAULT_WINDOW))
        assert sampled.result == baseline.result
        assert sampled.duration == baseline.duration  # float-exact
        assert (
            live_obs.snapshot().counter("sim.events_processed")
            == base_obs.snapshot().counter("sim.events_processed")
        )


class TestWindowAccounting:
    def test_windows_tile_the_run(self, fig15_live):
        sampler, report, obs = fig15_live
        windows = sampler.windows
        assert windows, "a multi-millisecond run must produce windows"
        assert windows[0].start == 0.0
        for index, window in enumerate(windows):
            assert window.index == index
            assert window.start < window.end
        for left, right in zip(windows, windows[1:]):
            assert left.end == right.start
        # interior windows have the configured span; the last is partial,
        # closing at the simulator's final instant (which may trail the
        # result delivery while run-out events drain)
        for window in windows[:-1]:
            assert window.span == pytest.approx(DEFAULT_WINDOW)
        assert report.duration <= windows[-1].end
        assert windows[-1].span <= DEFAULT_WINDOW + 1e-12

    def test_every_event_lands_in_exactly_one_window(self, fig15_live):
        sampler, _report, obs = fig15_live
        total = obs.snapshot().counter("sim.events_processed")
        assert sum(w.events for w in sampler.windows) == total

    def test_every_flow_lands_in_exactly_one_window(self, fig15_live):
        sampler, _report, obs = fig15_live
        completed = [r for r in obs.flows.completed if not r.eos]
        assert sum(w.flows_completed for w in sampler.windows) == len(completed)
        assert len(sampler.latencies()) == len(completed)
        assert sum(w.bytes_delivered for w in sampler.windows) == sum(
            r.nbytes for r in completed
        )

    def test_sampler_adds_zero_events_even_when_enabled(self):
        """The sampler observes the event loop; it never schedules into it."""
        _report, plain_obs = run_q5_point(None, flows=NULL_FLOWS)
        _report, live_obs = run_q5_point(
            LiveSampler(window=DEFAULT_WINDOW), flows=NULL_FLOWS
        )
        assert (
            live_obs.snapshot().counter("sim.events_processed")
            == plain_obs.snapshot().counter("sim.events_processed")
        )

    def test_rebind_rejected(self, fig15_live):
        sampler, _report, _obs = fig15_live
        with pytest.raises(RuntimeError):
            Instrumentation(tracer=NULL_TRACER, live=sampler)

    def test_series_extraction(self, fig15_live):
        sampler, _report, _obs = fig15_live
        document = sampler.series_document()
        count = len(sampler.windows)
        for key in ("end", "p50", "p95", "p99", "mbps", "flows"):
            assert len(document[key]) == count
        assert document["window_s"] == DEFAULT_WINDOW
        assert document["culprit"] == "io-proxy[1]"


class TestDeterminism:
    def test_windowed_series_deterministic_for_fixed_seed(self):
        first = LiveSampler(window=DEFAULT_WINDOW)
        second = LiveSampler(window=DEFAULT_WINDOW)
        run_q5_point(first, seed=3)
        run_q5_point(second, seed=3)
        assert first.series_document() == second.series_document()
        assert (
            [e.to_dict() for e in first.health_events]
            == [e.to_dict() for e in second.health_events]
        )


class TestFig15MidRunDetection:
    """The continuous detector reaches the paper's Fig 15 verdict mid-run."""

    def test_io_proxy_flagged_saturated_before_completion(self, fig15_live):
        sampler, report, _obs = fig15_live
        saturated = [
            e for e in sampler.health_events
            if e.kind == "saturated" and e.subject == "io-proxy[1]"
        ]
        assert saturated, "the shared I/O proxy must saturate"
        assert saturated[0].scope == "pset"
        assert saturated[0].time < 0.5 * report.duration, (
            "detection must happen mid-run, not in hindsight"
        )

    def test_culprit_matches_posthoc_profile(self, fig15_live):
        sampler, _report, obs = fig15_live
        posthoc = profile([obs])
        assert posthoc.bottleneck is not None
        assert sampler.culprit == posthoc.bottleneck.resource == "io-proxy[1]"

    def test_saturation_recovers_by_the_end(self, fig15_live):
        sampler, _report, _obs = fig15_live
        detector = sampler.detector
        assert "io-proxy[1]" not in detector.saturated
        recovered = [
            e for e in detector.events
            if e.kind == "recovered" and e.subject == "io-proxy[1]"
        ]
        assert recovered


class TestFaultHealthEvents:
    """kill-node: degraded -> recovered events bracket the replan."""

    @pytest.fixture(scope="class")
    def faulted(self):
        from repro.bench.faults import (
            FaultSchedule,
            FaultTask,
            fault_queries,
            run_faulted_session,
        )
        from repro.bench.query_stream import registered

        task = FaultTask(seed=0, streams=2, scenario="kill-node")
        queries = fault_queries(task)
        config = EnvironmentConfig().with_seed(task.seed)
        with registered(queries):
            healthy_env = Environment(config, template=shared_template(config))
            healthy = run_faulted_session(healthy_env, queries, FaultSchedule())
            fault_time = 0.5 * healthy.makespan
            schedule = FaultSchedule.single("kill-node", fault_time, seed=0)
            sampler = LiveSampler(window=fault_time / 10.0)
            env = Environment(
                config,
                obs=Instrumentation(tracer=NULL_TRACER, live=sampler),
                template=shared_template(config),
            )
            result = run_faulted_session(env, queries, schedule)
            sampler.finalize(env.sim.now)
        return sampler, result, fault_time

    def test_fault_emits_degraded_at_the_instant(self, faulted):
        sampler, result, fault_time = faulted
        degraded = [
            e for e in sampler.health_events
            if e.kind == "degraded" and e.scope == "node"
        ]
        assert [e.subject for e in degraded] == result.failed_nodes
        assert degraded[0].time == pytest.approx(fault_time)
        assert "fault injection" in degraded[0].detail

    def test_replacement_delivery_emits_recovered(self, faulted):
        sampler, result, fault_time = faulted
        assert result.replacements == ["s1+r1/"]
        recovered = [
            e for e in sampler.health_events
            if e.kind == "recovered" and "replacement s1+r1/" in e.detail
        ]
        assert len(recovered) == 1
        assert recovered[0].subject == "stream:s1"
        assert recovered[0].time == pytest.approx(fault_time + result.recovery_s)

    def test_events_bracket_the_replan(self, faulted):
        sampler, result, fault_time = faulted
        degraded = next(
            e for e in sampler.health_events
            if e.kind == "degraded" and e.scope == "node"
        )
        recovered = next(
            e for e in sampler.health_events
            if e.kind == "recovered" and "replacement" in e.detail
        )
        assert degraded.time < recovered.time < result.makespan + 1e-12


class TestDetectorUnit:
    """State-machine behaviour on synthetic windows (no simulator)."""

    @staticmethod
    def feed(detector, values, name="io-proxy[1]"):
        events = []
        for index, value in enumerate(values):
            start = index * 1.0
            events.extend(detector.observe_window(
                index, start, start + 1.0, {name: value}, {}, {}
            ))
        return events

    def test_hysteresis_requires_consecutive_windows(self):
        detector = ContinuousBottleneckDetector(up_windows=2, down_windows=2)
        events = self.feed(detector, [0.9, 0.5, 0.9, 0.5, 0.9])
        assert events == []  # never two high windows in a row

    def test_saturate_then_recover(self):
        detector = ContinuousBottleneckDetector(up_windows=2, down_windows=2)
        events = self.feed(detector, [0.9, 0.9, 0.7, 0.5, 0.5])
        assert [e.kind for e in events] == ["saturated", "recovered"]
        assert events[0].window == 1
        assert events[1].window == 4  # the 0.7 band window does not count

    def test_band_holds_state_without_flapping(self):
        detector = ContinuousBottleneckDetector(up_windows=1, down_windows=1)
        events = self.feed(detector, [0.9, 0.7, 0.7, 0.7])
        assert [e.kind for e in events] == ["saturated"]
        assert detector.saturated == ["io-proxy[1]"]

    def test_culprit_prefers_dominant_saturated_leader(self):
        detector = ContinuousBottleneckDetector()
        for index, util in enumerate([
            {"a[0]": 1.0, "b[0]": 0.2},
            {"a[0]": 1.0, "b[0]": 0.2},
            {"a[0]": 1.0, "b[0]": 0.2},
            {"a[0]": 0.1, "b[0]": 0.9},   # brief spike elsewhere
            {"a[0]": 0.0, "b[0]": 0.0},   # idle tail
        ]):
            detector.observe_window(index, index * 1.0, index + 1.0, util, {}, {})
        assert detector.culprit == "a[0]"

    def test_stream_stall_needs_consecutive_quiet_windows(self):
        detector = ContinuousBottleneckDetector(stall_windows=2)
        detector.observe_window(0, 0.0, 1.0, {}, {"s0": 100.0}, {"s0": 1})
        events = detector.observe_window(1, 1.0, 2.0, {}, {}, {"s0": 1})
        assert events == []  # one quiet window is a burst gap, not a stall
        events = detector.observe_window(2, 2.0, 3.0, {}, {}, {"s0": 1})
        assert [e.kind for e in events] == ["degraded"]
        events = detector.observe_window(3, 3.0, 4.0, {}, {"s0": 50.0}, {})
        assert [e.kind for e in events] == ["recovered"]

    def test_scopes_are_keyed_by_resource_names_only(self):
        assert resource_scope("coproc[3]") == "node"
        assert resource_scope("io-proxy[1]") == "pset"
        assert resource_scope("switch-uplink[be->bg]") == "link"
        assert resource_scope("tcp-window[a->b]") == "link"
        # Was listed as a link family, but only ever named a process.
        assert resource_scope("tcp-forward[a->b#7]") == "resource"

    def test_validation(self):
        with pytest.raises(ValueError):
            ContinuousBottleneckDetector(high=0.0)
        with pytest.raises(ValueError):
            ContinuousBottleneckDetector(high=0.8, low=0.9)
        with pytest.raises(ValueError):
            ContinuousBottleneckDetector(up_windows=0)

    def test_event_rendering(self):
        event = HealthEvent(time=1.5, window=3, kind="saturated",
                            scope="pset", subject="io-proxy[1]", value=0.97,
                            detail="why")
        assert "io-proxy[1]" in str(event) and "why" in str(event)
        assert event.to_dict()["kind"] == "saturated"


class TestLintCleanliness:
    """The live-plane modules pass DET001-005 even under hot-path rules."""

    @pytest.mark.parametrize("module", ["live", "health"])
    def test_clean_under_hot_path_rules(self, module, tmp_path):
        source = ROOT / "src" / "repro" / "obs" / f"{module}.py"
        # Re-home the module under repro/sim/ so every hot-path-only rule
        # applies, then demand a clean bill.
        hot = tmp_path / "src" / "repro" / "sim"
        hot.mkdir(parents=True)
        target = hot / f"{module}.py"
        target.write_text(source.read_text())
        assert det_findings(tmp_path, target) == []
