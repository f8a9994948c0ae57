"""Seeded-defect micro-harnesses: one intentional bug per ``SAN`` code.

Each function in :data:`DEFECTS` builds a small real scenario — usually the
Figure 6 point-to-point query on a fresh environment — sabotages exactly
one lifecycle obligation, and returns the sanitizer's report.  They are the
executable specification of the ``SANxxx`` catalogue:
``tests/analysis/test_sanitize.py`` asserts each harness produces exactly
its codes.

The sabotage patterns are the real-world bug shapes the sanitizer exists
to catch: a teardown path that forgets one close call, a dangling blocking
``get()``, a carrier that never unregisters, an acquired node slot with no
matching release, and interrupt-swallowing processes that wedge a drained
simulator.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Tuple

from repro.analysis import sanitize
from repro.analysis.diagnostics import AnalysisReport


def _deployed_fig6() -> Tuple[Any, Any]:
    """A deployed-and-finished tiny fig6 query, ready to sabotage.

    Returns ``(env, deployment)``; the caller tears down and audits.
    """
    from repro.coordinator.deployer import Deployer
    from repro.core.experiments.fig6 import point_to_point_query
    from repro.hardware.environment import Environment, EnvironmentConfig
    from repro.scsql.plan import compile_plan

    env = Environment(EnvironmentConfig())
    deployer = Deployer(env)
    plan = compile_plan(point_to_point_query(1024, 8))
    deployment = deployer.deploy(deployer.place(plan))
    deployment.run()
    return env, deployment


def _stubborn(sim: Any, store: Any, name: str) -> Any:
    """A process that swallows its termination interrupt and re-blocks —
    the bug shape of a worker loop with an over-broad ``except``."""
    from repro.sim import Interrupt

    def body() -> Iterator[Any]:
        while True:
            try:
                yield store.get()
            except Interrupt:
                continue

    return sim.process(body(), name=name)


def defect_san101() -> AnalysisReport:
    """A harness whose outcome is the dispatch order of simultaneous events."""
    from repro.sim import Simulator

    def harness() -> Tuple[int, ...]:
        sim = Simulator()
        order = []

        def note(tag: int) -> Iterator[Any]:
            yield sim.timeout(0.0)
            order.append(tag)

        for tag in range(8):
            sim.process(note(tag))
        sim.run()
        return tuple(order)

    report, _outcomes = sanitize.run_shuffled(
        harness, seeds=(0, 1, 2, 3), label="defect:SAN101"
    )
    return report


def defect_san201() -> AnalysisReport:
    """A worker that survives teardown by swallowing its interrupt."""
    from repro.sim import Store

    with sanitize.sanitizer(label="defect:SAN201", strict=False) as scope:
        env, deployment = _deployed_fig6()
        rp = next(iter(deployment.rps.values()))
        private = Store(env.sim, name="defect.private")
        rp.ctx.processes.append(_stubborn(env.sim, private, "defect.survivor"))
        deployment.teardown()
        env.sim.run()
        sanitize.assert_quiescent(env, raise_on_findings=False)
    return scope.report


def defect_san202() -> AnalysisReport:
    """A teardown path that forgets to close one receive inbox."""
    with sanitize.sanitizer(label="defect:SAN202", strict=False) as scope:
        env, deployment = _deployed_fig6()
        for rp in deployment.rps.values():
            for port in rp.input_ports:
                port.inbox.close = lambda: None  # type: ignore[method-assign]
        deployment.teardown()
        sanitize.assert_quiescent(env, raise_on_findings=False)
    return scope.report


def defect_san203() -> AnalysisReport:
    """A live worker left blocked on a kernel store after teardown.

    The waiter must be *alive*: inert getter events of interrupt-killed
    processes are dead state the deployment collects, not leaks.
    """
    with sanitize.sanitizer(label="defect:SAN203", strict=False) as scope:
        env, deployment = _deployed_fig6()
        rp = next(iter(deployment.rps.values()))
        assert rp.result_store is not None
        _stubborn(env.sim, rp.result_store, "defect.blocked-get")
        deployment.teardown()
        env.sim.run()
        sanitize.assert_quiescent(env, raise_on_findings=False)
    return scope.report


def defect_san204() -> AnalysisReport:
    """A carrier registration with no matching unregister."""
    with sanitize.sanitizer(label="defect:SAN204", strict=False) as scope:
        env, deployment = _deployed_fig6()
        env.torus.register_stream(0, "defect->ghost")
        deployment.teardown()
        sanitize.assert_quiescent(env, raise_on_findings=False)
    return scope.report


def defect_san205() -> AnalysisReport:
    """A node slot acquired outside any deployment and never released."""
    from repro.hardware.environment import BLUEGENE

    with sanitize.sanitizer(label="defect:SAN205", strict=False) as scope:
        env, deployment = _deployed_fig6()
        env.node(BLUEGENE, 0).acquire()
        deployment.teardown()
        sanitize.assert_quiescent(env, raise_on_findings=False)
    return scope.report


def defect_san301() -> AnalysisReport:
    """Two interrupt-swallowing workers cross-blocked on empty stores."""
    from repro.sim import Store

    with sanitize.sanitizer(label="defect:SAN301", strict=False) as scope:
        env, deployment = _deployed_fig6()
        rp = next(iter(deployment.rps.values()))
        first = Store(env.sim, name="defect.first")
        second = Store(env.sim, name="defect.second")
        rp.ctx.processes.append(_stubborn(env.sim, first, "defect.wedge-a"))
        rp.ctx.processes.append(_stubborn(env.sim, second, "defect.wedge-b"))
        deployment.teardown()
        env.sim.run()
        sanitize.assert_quiescent(env, raise_on_findings=False)
    return scope.report


#: code -> micro-harness producing it.
DEFECTS: Dict[str, Callable[[], AnalysisReport]] = {
    "SAN101": defect_san101,
    "SAN201": defect_san201,
    "SAN202": defect_san202,
    "SAN203": defect_san203,
    "SAN204": defect_san204,
    "SAN205": defect_san205,
    "SAN301": defect_san301,
}
