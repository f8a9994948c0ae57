"""Reproducibility: identical seeds give identical simulations."""

from repro.engine import ExecutionSettings
from repro.hardware import Environment, EnvironmentConfig
from repro.obs import Instrumentation
from repro.obs.tracer import NULL_TRACER
from repro.scsql import SCSQSession

QUERY = (
    "select extract(c) from sp a, sp b, sp c "
    "where c=sp(count(merge({a,b})), 'bg', 0) "
    "and a=sp(gen_array(100000,6), 'bg', 1) "
    "and b=sp(gen_array(100000,6), 'bg', 4);"
)


def run_once(seed, obs=None):
    session = SCSQSession(Environment(EnvironmentConfig(seed=seed), obs=obs))
    report = session.execute(QUERY, ExecutionSettings(mpi_buffer_bytes=10_000))
    return report


class TestDeterminism:
    def test_same_seed_same_everything(self):
        hubs = [Instrumentation(tracer=NULL_TRACER) for _ in range(2)]
        first, second = (run_once(seed=42, obs=obs) for obs in hubs)
        assert first.duration == second.duration
        assert first.result == second.result
        # every counter: torus payload and source switches among them
        assert hubs[0].snapshot().counters == hubs[1].snapshot().counters
        stats_a = first.rp_statistics["a@1"]
        stats_b = second.rp_statistics["a@1"]
        assert stats_a.cpu_busy_time == stats_b.cpu_busy_time

    def test_different_seed_different_timing(self):
        assert run_once(seed=1).duration != run_once(seed=2).duration

    def test_jitter_zero_is_seed_independent(self):
        def run(seed):
            config = EnvironmentConfig(
                params=EnvironmentConfig().params.with_overrides(jitter=0.0),
                seed=seed,
            )
            session = SCSQSession(Environment(config))
            return session.execute(QUERY, ExecutionSettings(mpi_buffer_bytes=10_000))

        assert run(1).duration == run(2).duration
