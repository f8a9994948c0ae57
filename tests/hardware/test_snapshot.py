"""Snapshot / fork lifecycle of the environment template.

The contract under test: a :class:`TopologySnapshot` is a *frozen copy*
of the template's mutable occupancy (CNDB cursors, node status), so no
amount of later mutation — by the template, by forks, by other snapshots
being restored — can change what a captured snapshot restores to.
"""

import pytest

from repro.hardware.bluegene import BlueGeneConfig
from repro.hardware.environment import (
    BLUEGENE,
    EnvironmentConfig,
    EnvironmentTemplate,
    TopologySnapshot,
)
from repro.util.errors import HardwareError


@pytest.fixture
def template():
    return EnvironmentTemplate(EnvironmentConfig())


def _occupy(template, cluster=BLUEGENE, nodes=3, processes=2):
    """Dirty the shared occupancy the way a deployment would."""
    cndb = template.cndbs[cluster]
    cndb._rr_cursor = nodes
    for index in range(nodes):
        cndb._nodes[index].running_processes = processes


class TestSnapshotCapture:
    def test_snapshot_is_a_frozen_value(self, template):
        snapshot = template.snapshot()
        assert isinstance(snapshot, TopologySnapshot)
        with pytest.raises(AttributeError):
            snapshot.cursors = ()

    def test_snapshot_copies_not_aliases(self, template):
        """Mutating the template after capture leaves the snapshot intact."""
        before = template.snapshot()
        _occupy(template)
        after = template.snapshot()
        assert before != after
        template.restore(before)
        assert template.snapshot() == before

    def test_pristine_equals_fresh_build(self, template):
        assert template.snapshot() == template._pristine
        _occupy(template)
        template.reset()
        assert template.snapshot() == template._pristine


class TestRestore:
    def test_restore_roundtrip(self, template):
        _occupy(template, nodes=5, processes=3)
        warmed = template.snapshot()
        template.reset()
        assert template.snapshot() == template._pristine
        template.restore(warmed)
        assert template.snapshot() == warmed
        cndb = template.cndbs[BLUEGENE]
        assert cndb._rr_cursor == 5
        assert cndb._nodes[0].running_processes == 3

    def test_restore_none_means_pristine(self, template):
        _occupy(template)
        template.restore(None)
        assert template.snapshot() == template._pristine

    def test_mismatched_topology_rejected(self, template):
        other = EnvironmentTemplate(
            EnvironmentConfig(bluegene=BlueGeneConfig(torus_shape=(4, 4, 4)))
        )
        alien = other.snapshot()
        with pytest.raises(HardwareError, match="does not belong"):
            template.restore(alien)

    def test_seed_does_not_bind_a_snapshot(self, template):
        """Snapshots key on topology only; seeds vary per fork."""
        snapshot = template.snapshot()
        reseeded = EnvironmentTemplate(EnvironmentConfig(seed=99))
        reseeded.restore(snapshot)  # must not raise


class TestFork:
    def test_fork_starts_pristine_by_default(self, template):
        _occupy(template)
        env = template.fork(seed=7)
        assert env.config.seed == 7
        assert env.template is template
        assert template.snapshot() == template._pristine

    def test_fork_from_snapshot_starts_warm(self, template):
        _occupy(template, nodes=4, processes=1)
        warmed = template.snapshot()
        template.reset()
        env = template.fork(seed=1)
        assert env.cndbs[BLUEGENE]._rr_cursor == 0
        template.restore(warmed)  # the fork shares the template's CNDBs
        assert env.template is template
        assert env.cndbs[BLUEGENE]._rr_cursor == 4
        assert template.snapshot() == warmed

    def test_fork_mutations_never_leak_into_pristine(self, template):
        pristine = template._pristine
        env = template.fork(seed=3)
        env.cndbs[BLUEGENE]._nodes[0].running_processes = 9
        assert template._pristine == pristine
        template.fork(seed=4)  # a new fork restores pristine
        assert template.snapshot() == pristine

    def test_sibling_forks_are_isolated(self, template):
        """Each fork restores the shared occupancy: no cross-talk."""
        first = template.fork(seed=0)
        first.cndbs[BLUEGENE]._rr_cursor = 11
        second = template.fork(seed=1)
        assert second.cndbs[BLUEGENE]._rr_cursor == 0

    def test_forks_have_independent_simulators(self, template):
        first = template.fork(seed=0)
        second = template.fork(seed=1)
        assert first.sim is not second.sim
        fired = []

        def waiter():
            yield second.sim.timeout(1.0)
            fired.append(second.sim.now)

        second.sim.process(waiter())
        second.sim.run()
        assert fired == [1.0]
        assert first.sim.now == 0.0

    def test_fork_obs_attaches_to_the_fork_only(self, template):
        from repro.obs import Instrumentation
        from repro.obs.tracer import NULL_TRACER

        obs = Instrumentation(tracer=NULL_TRACER)
        observed = template.fork(seed=0, obs=obs)
        plain = template.fork(seed=1)
        assert observed.obs is obs
        assert plain.obs is not obs
