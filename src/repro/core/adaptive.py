"""Adaptive runtime: measurement-driven live migration of stream processes.

This module closes the observe -> decide -> act loop across the stack:

* **observe** — the :class:`~repro.obs.live.LiveSampler` windows carry
  per-SP measured throughput, and the
  :class:`~repro.obs.health.ContinuousBottleneckDetector` pushes typed
  :class:`~repro.obs.health.HealthEvent` transitions to subscribed
  listeners the moment a window closes;
* **decide** — :meth:`~repro.optimizer.placement.CostBasedPlacer.
  replace_one` scores moving each candidate SP with every other placement
  held fixed, its analytic bounds calibrated by live measured/predicted
  factors;
* **act** — :meth:`~repro.coordinator.deployer.Deployer.migrate` runs the
  quiesce -> redeploy -> replay lifecycle as the session's next
  generation of the label
  (:meth:`~repro.core.multiquery.MultiQuerySession.replace`, tag ``g``),
  with rollback when the move cannot be placed.

The controller is deliberately conservative: it reacts only to detector
state (whose high/low thresholds and up/down window counts are the first
hysteresis layer), requires a minimum predicted improvement factor (the
second), enforces a cooldown between migrations (the third), and stops
at a small migration budget (the fourth) — a restart-based migration
replays the stream from its sources, so thrash costs real time.

Everything here is a pure function of the simulated event stream: no
wall clock, no unseeded randomness, deterministic victim selection
(labels and sp ids are visited in sorted order, strict-improvement
tie-breaks keep the first).  The module is covered by the DET001–005
hot-path determinism rules (the ``HOT`` scope of tests/test_removed_surface.py).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.coordinator.deployer import Deployment, MigrationRecord
from repro.hardware.environment import BLUEGENE
from repro.obs.health import HealthEvent, base_stream
from repro.obs.live import DEFAULT_WINDOW
from repro.optimizer.placement import CostBasedPlacer
from repro.util.errors import AllocationError, QueryExecutionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.multiquery import MultiQueryResult, MultiQuerySession

__all__ = ["AdaptiveController", "BUDGET"]

#: Event kinds that arm an evaluation (a subject became unhealthy).
_ALERT_KINDS = ("saturated", "degraded")


#: Stepped-execution horizon: how often the controller regains control
#: between ``sim.run(until=...)`` calls — one live window, so every closed
#: window is seen at most one step late.
CHECK_INTERVAL = DEFAULT_WINDOW

#: Minimum simulated seconds between two migrations — the post-action
#: hysteresis that lets the detector's windows see the effect of a move
#: before another is considered.
COOLDOWN = 0.004

#: Maximum number of migrations per session.  Restart-based migration
#: replays streams from their sources, so the budget is low.
BUDGET = 2

#: A move happens only when the calibrated predicted bandwidth of the best
#: candidate placement exceeds the current placement's by this factor.
IMPROVEMENT_FACTOR = 1.10

#: Clamp on the measured/predicted calibration factors, so one degenerate
#: window cannot zero or explode the cost model.
MIN_FACTOR = 0.05
MAX_FACTOR = 20.0


class AdaptiveController:
    """Drives a :class:`~repro.core.multiquery.MultiQuerySession` adaptively.

    Handed a session with its queries submitted, :meth:`run` takes the
    place of ``session.run()``: it steps the simulator between the
    session's ``start()`` and ``finish()`` and migrates through
    ``session.replace(label, "g", ...)``.  The environment must be
    live-instrumented (:func:`repro.obs.instrument.live_instrumentation`).
    ``budget`` caps the migrations; at zero the run is the classic static
    one, float for float.
    """

    def __init__(self, session: "MultiQuerySession", budget: int = BUDGET):
        if budget < 0:
            raise QueryExecutionError(f"budget must be >= 0, got {budget!r}")
        self.session = session
        self.budget = budget
        self.migrations: List[MigrationRecord] = []
        self._last_migration: Optional[float] = None
        #: subject -> the alert that made it unhealthy; insertion-ordered,
        #: pruned when the detector reports the subject recovered.
        self._unhealthy: Dict[str, HealthEvent] = {}

    # ------------------------------------------------------------------
    # Observe: detector subscription
    # ------------------------------------------------------------------
    def _on_health(self, event: HealthEvent) -> None:
        if event.kind in _ALERT_KINDS:
            self._unhealthy[event.subject] = event
        elif event.kind == "recovered":
            self._unhealthy.pop(event.subject, None)

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def run(self) -> "MultiQueryResult":
        """Start every query, then step the simulator, reacting between steps.

        The loop advances the shared simulator :data:`CHECK_INTERVAL` at a
        time (jumping ahead when the next event is farther out, so idle
        tails cost no iterations) and evaluates a migration whenever the
        detector currently reports an unhealthy subject.  It exits when
        the event queue drains — exactly the condition under which the
        classic single ``sim.run()`` returns.
        """
        session = self.session
        env = session.env
        live = env.obs.live
        if not live.enabled:
            raise QueryExecutionError(
                "adaptive mode needs a live-instrumented environment: build "
                "it with repro.obs.instrument.live_instrumentation() so "
                "windows and health events exist to react to"
            )
        sim = env.sim
        session.start()
        t0 = sim.now
        detector = live.detector
        detector.add_listener(self._on_health, owner="adaptive-controller")
        try:
            while True:
                upcoming = sim.peek()
                if upcoming == float("inf"):
                    break
                sim.run(until=max(sim.now + CHECK_INTERVAL, upcoming))
                if self._unhealthy:
                    self._maybe_migrate()
        finally:
            detector.remove_listener(self._on_health)

        result = session.finish()
        result.live = live
        result.migrations = list(self.migrations)
        for outcome in result.outcomes:
            start_time = session.deployment(outcome.label).start_time
            assert start_time is not None
            outcome.total_duration = start_time + outcome.report.duration - t0
            outcome.migrations = [
                record for record in self.migrations
                if base_stream(record.rp_prefix) == outcome.label
            ]
        return result

    # ------------------------------------------------------------------
    # Decide: calibrated incremental re-placement
    # ------------------------------------------------------------------
    def _running(self) -> Iterator[Tuple[str, Any, CostBasedPlacer, Dict[str, int]]]:
        """``(label, graph, placer, current placement)`` of every query
        still running, in submission order."""
        session = self.session
        for label in session.labels():
            deployment = session.deployment(label)
            if deployment.running:
                graph = deployment.graph
                yield label, graph, CostBasedPlacer(session.env, deployment.settings), {
                    sp_id: deployment.rps[sp_id].node.index for sp_id in graph.sps
                }

    def _calibration(self) -> Optional[Dict[str, float]]:
        """Measured/predicted factors per bound family, from the last window.

        For each live query, the binding analytic bound (the family that
        produces the current placement's minimum) is compared against the
        measured delivery rate into that query's BlueGene stream processes
        over the last closed live window.  Factors are averaged per family
        and clamped, so the optimizer scores candidates against the
        environment as *measured*, not just as modelled.
        """
        windows = self.session.env.obs.live.windows
        if not windows:
            return None
        window = windows[-1]
        span = window.span
        if span <= 0.0:
            return None
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for label, graph, placer, current in self._running():
            bounds = placer.predicted_bounds(graph, current)
            if not bounds:
                continue
            family = min(bounds, key=lambda name: (bounds[name], name))
            predicted = bounds[family]
            if not 0.0 < predicted < float("inf"):
                continue
            measured = 0.0
            for key, nbytes in window.sp_bytes.items():
                prefix, _, sp_id = key.partition("/")
                if prefix != label:
                    continue
                sp = graph.sps.get(sp_id)
                if sp is not None and sp.cluster == BLUEGENE:
                    measured += nbytes
            rate = measured / span
            if rate <= 0.0:
                continue
            sums[family] = sums.get(family, 0.0) + rate / predicted
            counts[family] = counts.get(family, 0) + 1
        if not sums:
            return None
        return {
            family: min(max(sums[family] / counts[family], MIN_FACTOR), MAX_FACTOR)
            for family in sorted(sums)
        }

    def _best_move(
        self, measured: Optional[Dict[str, float]]
    ) -> Optional[Tuple[float, str, str, int]]:
        """The highest-gain single-SP move across every live query.

        Returns ``(gain, label, sp_id, target_node_index)`` or ``None``.
        Deterministic: labels in submission order, sp ids sorted, and a
        later candidate replaces the incumbent only on strict improvement.
        """
        best: Optional[Tuple[float, str, str, int]] = None
        for label, graph, placer, current in self._running():
            current_score = placer.predicted_bandwidth(graph, current, measured)
            if not 0.0 < current_score < float("inf"):
                continue
            for sp_id in sorted(graph.sps):
                if graph.sps[sp_id].cluster != BLUEGENE:
                    continue
                try:
                    target, score = placer.replace_one(
                        graph, sp_id, current, measured
                    )
                except AllocationError:
                    continue
                gain = score / current_score
                if best is None or gain > best[0]:
                    best = (gain, label, sp_id, target)
        return best

    # ------------------------------------------------------------------
    # Act: the migration
    # ------------------------------------------------------------------
    def _maybe_migrate(self) -> None:
        session = self.session
        sim = session.env.sim
        if len(self.migrations) >= self.budget:
            return
        if (
            self._last_migration is not None
            and sim.now - self._last_migration < COOLDOWN
        ):
            return
        best = self._best_move(self._calibration())
        if best is None or best[0] < IMPROVEMENT_FACTOR:
            return
        _, label, sp_id, target = best

        def migrate(deployment: Deployment, plan: object, prefix: str) -> Deployment:
            replacement, record = session.deployer.migrate(
                deployment, plan, sp_id, target, rp_prefix=prefix
            )
            self.migrations.append(record)
            return replacement

        session.replace(label, "g", migrate)
        self._last_migration = sim.now
