"""Concurrent CQ sessions: N plans on one shared environment.

What must hold: every submitted query gets its own rp-prefix namespace
(identical plans stay distinct), one simulator run drives them all, each
reports its own bandwidth, and concurrency through a shared I/O-node
path costs real bandwidth versus the solo points of the ``multiquery`` row.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sanitize
from repro.core.experiments import FIGURES
from repro.core.experiments.contention import SHARED_PSET, contending_query
from repro.core.multiquery import MultiQuerySession
from repro.hardware.environment import Environment, EnvironmentConfig
from repro.scsql.plan import compile_plan
from repro.util.errors import QueryExecutionError

#: Small, fast workload shared by the tests.
N, ARRAY_BYTES, COUNT = 2, 50_000, 2
PAYLOAD = N * ARRAY_BYTES * COUNT


def _session() -> MultiQuerySession:
    return MultiQuerySession(Environment(EnvironmentConfig()))


def _plan(sender: int):
    return compile_plan(contending_query(sender, N, ARRAY_BYTES, COUNT))


class TestMultiQuerySession:
    def test_two_concurrent_queries_report_separately(self):
        session = _session()
        session.submit(_plan(1), payload_bytes=PAYLOAD, label="left")
        session.submit(_plan(2), payload_bytes=PAYLOAD, label="right")
        result = session.run()
        session.teardown()
        assert [o.label for o in result.outcomes] == ["left", "right"]
        for outcome in result.outcomes:
            assert outcome.mbps > 0.0
            assert outcome.report.duration > 0.0
            # Reports keep the unprefixed stream-process ids.
            assert all("/" not in rp_id for rp_id in outcome.report.rp_placements)
        # The queries really ran on distinct nodes.
        left, right = result.outcomes
        left_nodes = {
            node
            for rp_id, node in left.report.rp_placements.items()
            if rp_id.startswith("b")
        }
        right_nodes = {
            node
            for rp_id, node in right.report.rp_placements.items()
            if rp_id.startswith("b")
        }
        assert left_nodes and right_nodes
        assert left_nodes.isdisjoint(right_nodes)

    def test_identical_plans_deploy_concurrently(self):
        # The SAME plan object twice: instantiation + rp prefixes keep the
        # deployments (and their stream ids) fully distinct.
        plan = _plan(1)
        session = _session()
        session.submit(plan, payload_bytes=PAYLOAD)
        session.submit(plan, payload_bytes=PAYLOAD)
        result = session.run()
        session.teardown()
        assert [o.label for o in result.outcomes] == ["q0", "q1"]
        assert all(o.mbps > 0.0 for o in result.outcomes)

    def test_duplicate_label_raises(self):
        session = _session()
        session.submit(_plan(1), payload_bytes=PAYLOAD, label="dup")
        with pytest.raises(QueryExecutionError, match="duplicate"):
            session.submit(_plan(2), payload_bytes=PAYLOAD, label="dup")

    def test_run_requires_submissions(self):
        with pytest.raises(QueryExecutionError, match="no queries"):
            _session().run()

    def test_session_is_single_shot(self):
        session = _session()
        session.submit(_plan(1), payload_bytes=PAYLOAD)
        session.run()
        with pytest.raises(QueryExecutionError, match="already ran"):
            session.run()
        with pytest.raises(QueryExecutionError, match="already ran"):
            session.submit(_plan(2), payload_bytes=PAYLOAD)

    def test_teardown_frees_every_deployment(self):
        session = _session()
        session.submit(_plan(1), payload_bytes=PAYLOAD)
        session.submit(_plan(2), payload_bytes=PAYLOAD)
        session.run()
        session.teardown()
        occupied = sum(
            node.running_processes
            for cluster in session.env.cluster_names()
            for node in session.env.cndb(cluster).all_nodes()
        )
        assert occupied == 0

    def test_result_lookup_by_label(self):
        session = _session()
        session.submit(_plan(1), payload_bytes=PAYLOAD, label="only")
        result = session.run()
        assert result["only"].label == "only"
        with pytest.raises(KeyError):
            result["missing"]


class TestReplace:
    """``replace`` is the one way a running label changes generation —
    the fault harness's replan (tag ``r``) and the adaptive runtime's live
    migration (tag ``g``) are two ``redeploy`` callables handed to it."""

    #: label -> (buffers streamed, exact reference result).
    STREAMS = {"left": 6, "right": 9}
    QUERY = (
        "select extract(b) from sp a, sp b "
        "where b=sp(count(extract(a)), 'bg') "
        "and a=sp(gen_array(100000,{count}), 'bg');"
    )

    def _submitted(self, seed: int) -> MultiQuerySession:
        session = MultiQuerySession(Environment(EnvironmentConfig().with_seed(seed)))
        for label, count in self.STREAMS.items():
            plan = compile_plan(self.QUERY.format(count=count))
            # Verified against the queries already submitted, then deployed.
            assert session.deployer.verify(plan, label=label).diagnostics == []
            session.submit(plan, payload_bytes=100_000 * count, label=label)
        return session

    @staticmethod
    def _redeploy(session: MultiQuerySession, tag: str, rng: random.Random):
        """The harness's replan around a killed node, or a migration of the
        generator onto a random free node."""
        deployer = session.deployer

        def replan(deployment, plan, prefix):
            deployment.rps["a@1"].node.fail()
            deployment.teardown()
            placed = deployer.place(plan)
            # The replan avoids the dead node: nothing for the verifier to say.
            assert deployer.verify(placed, label=prefix).diagnostics == []
            return deployer.deploy(placed, rp_prefix=prefix)

        def migrate(deployment, plan, prefix):
            free = [
                node.index
                for node in session.env.cndb("bg").all_nodes()
                if node.is_available and node.capabilities.can_compute
            ]
            replacement, record = deployer.migrate(
                deployment, plan, "a@1", rng.choice(free), rp_prefix=prefix
            )
            assert record.ok and record.rp_prefix == prefix
            return replacement

        return {"r": replan, "g": migrate}[tag]

    @settings(max_examples=20, deadline=None)
    @given(
        tag=st.sampled_from(["r", "g"]),
        victim=st.sampled_from(sorted(STREAMS)),
        fraction=st.floats(min_value=0.0, max_value=0.99),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_replacing_a_running_label_keeps_every_result_exact(
        self, tag, victim, fraction, seed
    ):
        healthy = self._submitted(seed)
        shortest = min(o.report.duration for o in healthy.run().outcomes)
        healthy.teardown()

        session = self._submitted(seed)
        env = session.env
        session.start()
        env.sim.run(until=fraction * shortest)
        before = session.deployment(victim)
        assert before.running

        def refuses(deployment, plan, prefix):
            raise RuntimeError(f"cannot redeploy under {prefix}")

        with pytest.raises(RuntimeError, match=rf"{victim}\+{tag}1/"):
            session.replace(victim, tag, refuses)
        # A redeploy that raised changed nothing: same deployment, and the
        # generation it was offered is offered again.
        assert session.deployment(victim) is before and before.running

        replacement = session.replace(
            victim, tag, self._redeploy(session, tag, random.Random(seed))
        )
        assert replacement is session.deployment(victim)
        assert replacement.rp_prefix == f"{victim}+{tag}1/"
        assert before.torn_down and replacement.running
        env.sim.run()
        result = session.finish()
        for label, count in self.STREAMS.items():
            assert result[label].report.result == [count]
            if label != victim:
                assert session.deployment(label).rp_prefix == f"{label}/"
        session.teardown()
        sanitize.assert_quiescent(env)

    def test_second_replacement_is_generation_two(self):
        session = self._submitted(0)
        session.start()
        rng = random.Random(0)
        for generation in (1, 2):
            session.env.sim.run(until=0.002 * generation)
            replaced = session.replace("left", "g", self._redeploy(session, "g", rng))
            assert replaced.rp_prefix == f"left+g{generation}/"
        session.env.sim.run()
        assert session.finish()["left"].report.result == [6]
        session.teardown()

    def test_replace_needs_a_started_session(self):
        session = self._submitted(0)
        with pytest.raises(QueryExecutionError, match="not started"):
            session.replace("left", "r", lambda *args: None)
        session.start()
        with pytest.raises(KeyError):
            session.replace("missing", "r", lambda *args: None)
        session.teardown()

    def test_labels_and_phases_are_the_run(self):
        """``run()`` is start, drain, finish: doing the three by hand gives
        the same floats."""
        whole = self._submitted(3)
        expected = whole.run()
        whole.teardown()
        parts = self._submitted(3)
        assert parts.labels() == list(self.STREAMS)
        parts.start()
        parts.env.sim.run()
        result = parts.finish()
        parts.teardown()
        for ours, theirs in zip(result.outcomes, expected.outcomes):
            assert ours.label == theirs.label
            assert ours.report.duration == theirs.report.duration
            assert ours.report.result == theirs.report.result


class TestContentionDemo:
    """The ``multiquery`` row: each concurrent point is one session."""

    def test_shared_io_path_costs_bandwidth(self, quick):
        (multiquery,) = FIGURES["multiquery"]
        result = quick(multiquery)
        cndb = Environment(EnvironmentConfig()).cndb("bg")
        for key, point in result.points.items():
            if key.queries == 1:
                continue
            (session,) = point.reports
            assert [o.label for o in session.outcomes] == ["qA", "qB", "qC", "qD"][:key.queries]
            for index, outcome in enumerate(session.outcomes):
                # Receivers really sit inside the contended pset (or their own).
                pset = SHARED_PSET + index if key.psets == "disjoint" else SHARED_PSET
                pset_nodes = {f"bg:{node}" for node in cndb.nodes_in_pset(pset)}
                receivers = {
                    node
                    for rp_id, node in outcome.report.rp_placements.items()
                    if rp_id.startswith("b[")
                }
                assert receivers and receivers <= pset_nodes
                # Contending for one pset's I/O node must cost real bandwidth.
                solo = result.at(1, key.n, "same", "shared").mean_mbps
                if key.psets == "shared":
                    assert outcome.mbps < solo


class TestObservedSessionScales:
    """An observed session freezes nothing: its registry is read from the hub."""

    @staticmethod
    def _observed_session(queries: int):
        from repro.core.experiments.scale import scale_config, scale_stream_query
        from repro.engine.settings import ExecutionSettings
        from repro.hardware.environment import shared_template
        from repro.obs import Instrumentation
        from repro.obs.tracer import NULL_TRACER

        settings = ExecutionSettings(mpi_buffer_bytes=10_000, double_buffering=True)
        plan = compile_plan(scale_stream_query(10_000, 1), settings=settings)
        env = shared_template(scale_config((8, 8, 8))).fork(
            seed=0, obs=Instrumentation(tracer=NULL_TRACER)
        )
        session = MultiQuerySession(env, settings=settings)
        for _ in range(queries):
            session.submit(plan, payload_bytes=10_000)
        return session

    def test_a_session_run_freezes_nothing(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry

        calls = []
        original = MetricsRegistry.snapshot

        def counting(registry, now):
            calls.append(now)
            return original(registry, now)

        monkeypatch.setattr(MetricsRegistry, "snapshot", counting)
        session = self._observed_session(64)
        result = session.run()
        session.teardown()
        assert calls == []
        assert all(outcome.report.result == [1] for outcome in result.outcomes)
        # The hub carries every query's RP statistics and flows.
        hub = session.env.obs.snapshot()
        for label in ("q0", "q63"):
            assert hub.gauges[f"rp.{label}/a@1.bytes_sent"] == 10_000
            assert hub.gauges[f"flow.completed[{label}/a@1->{label}/b@2]"] == 1

    def test_cost_grows_linearly_with_the_queries(self):
        import time

        def run_once(queries: int) -> float:
            session = self._observed_session(queries)
            started = time.perf_counter()
            session.run()
            elapsed = time.perf_counter() - started
            session.teardown()
            return elapsed

        run_once(8)  # warm the shared template and the route memo
        # Interleaved, fastest of four: a drift in machine speed reaches both.
        small, large = float("inf"), float("inf")
        for _ in range(4):
            small = min(small, run_once(32))
            large = min(large, run_once(64))
        # Freezing per report made this 4x and worse; linear is 2x.
        assert large < 3.0 * small
