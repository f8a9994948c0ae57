"""Integration tests: the cost-based placer rediscovers the paper's topologies."""

import pytest

from repro.coordinator import Deployer
from repro.core.experiments.ablations import automatic_inbound_query
from repro.engine import ExecutionSettings
from repro.hardware import Environment
from repro.optimizer import CostBasedPlacer
from repro.scsql import SCSQSession
from repro.scsql.compiler import QueryCompiler
from repro.scsql.parser import parse_query

MERGE_QUERY = """
select extract(c)
from sp a, sp b, sp c
where c=sp(count(merge({a,b})), 'bg')
and a=sp(gen_array(200000,10), 'bg')
and b=sp(gen_array(200000,10), 'bg');
"""


def compile_graph(text):
    return QueryCompiler().compile_select(parse_query(text))


class TestMergePlacement:
    def test_rediscovers_the_balanced_topology(self):
        """The placer puts both producers one hop from the merger over
        independent channels — Figure 7B, derived from the cost model."""
        env = Environment()
        graph = compile_graph(MERGE_QUERY)
        settings = ExecutionSettings(mpi_buffer_bytes=100_000)
        assignment = CostBasedPlacer(env, settings).place(graph)
        by_role = {sp_id.split("@")[0]: index for sp_id, index in assignment.items()}
        consumer = by_role["c"]
        for producer in (by_role["a"], by_role["b"]):
            assert env.torus.hop_count(producer, consumer) == 1

    def test_placement_improves_measured_bandwidth(self):
        settings = ExecutionSettings(mpi_buffer_bytes=100_000)

        def run(optimize):
            env = Environment()
            graph = compile_graph(MERGE_QUERY)
            if optimize:
                CostBasedPlacer(env, settings).place(graph)
            report = Deployer(env).run(graph, settings=settings)
            return 2 * 200_000 * 10 * 8 / report.duration / 1e6

        assert run(True) > 1.1 * run(False)


class TestInboundPlacement:
    def test_rediscovers_the_query5_topology(self):
        """Senders co-located on one back-end host, receivers spread over
        all psets — the paper's best inbound configuration."""
        env = Environment()
        graph = compile_graph(automatic_inbound_query(4, 3_000_000, 5))
        assignment = CostBasedPlacer(env, ExecutionSettings()).place(graph)
        senders = {v for k, v in assignment.items() if k.startswith("a[")}
        receivers = [v for k, v in assignment.items() if k.startswith("b[")]
        assert len(senders) == 1  # co-located
        psets = {env.bluegene.pset_of(node) for node in receivers}
        assert psets == {0, 1, 2, 3}  # spread

    def test_measured_speedup_over_naive(self):
        def run(optimize):
            env = Environment()
            graph = compile_graph(automatic_inbound_query(4, 3_000_000, 4))
            if optimize:
                CostBasedPlacer(env, ExecutionSettings()).place(graph)
            report = Deployer(env).run(graph, settings=ExecutionSettings())
            return 4 * 3_000_000 * 4 * 8 / report.duration / 1e6

        assert run(True) > 5 * run(False)


class TestSessionIntegration:
    def test_optimize_flag_places_unallocated_sps(self):
        session = SCSQSession()
        report = session.execute(
            automatic_inbound_query(4, 1_000_000, 3), optimize=True
        )
        receivers = [
            int(node.split(":")[1])
            for sp, node in report.rp_placements.items()
            if sp.startswith("b[")
        ]
        psets = {node // 8 for node in receivers}
        assert psets == {0, 1, 2, 3}

    def test_explicit_allocations_win(self):
        """User topologies are never overridden (the paper's contract)."""
        session = SCSQSession()
        report = session.execute(
            "select extract(b) from sp a, sp b "
            "where b=sp(count(extract(a)), 'bg', 5) "
            "and a=sp(gen_array(100000,3), 'bg', 9);",
            optimize=True,
        )
        assert report.rp_placements["a@1"] == "bg:9"
        assert report.rp_placements["b@2"] == "bg:5"

    def test_predicted_bandwidth_exposed(self):
        env = Environment()
        graph = compile_graph(MERGE_QUERY)
        placer = CostBasedPlacer(env, ExecutionSettings(mpi_buffer_bytes=100_000))
        assignment = placer.place(graph)
        predicted = placer.predicted_bandwidth(graph, assignment)
        assert predicted > 0


class TestIncrementalReplacement:
    """replace_one + measured calibration: the adaptive runtime's query."""

    def _placed(self):
        env = Environment()
        graph = compile_graph(MERGE_QUERY)
        placer = CostBasedPlacer(env, ExecutionSettings(mpi_buffer_bytes=100_000))
        assignment = placer.place(graph)
        return env, graph, placer, assignment

    def test_replace_one_scores_a_single_sp_move(self):
        env, graph, placer, assignment = self._placed()
        victim = next(sp_id for sp_id in graph.sps if sp_id.startswith("b"))
        target, score = placer.replace_one(graph, victim, assignment)
        assert score > 0.0
        # Re-placing one SP with the rest fixed cannot beat the full
        # refinement pass that produced this assignment.
        assert score <= placer.predicted_bandwidth(graph, assignment)
        # The fixed assignment is input, not state: no mutation.
        assert assignment[victim] is not None

    def test_replace_one_excludes_occupied_nodes(self):
        """Candidates come from the live CNDB: a node holding a running RP
        — including the victim's own — is never proposed, so against a live
        deployment the answer is always a genuine move."""
        env = Environment()
        graph = compile_graph(MERGE_QUERY)
        placer = CostBasedPlacer(env, ExecutionSettings(mpi_buffer_bytes=100_000))
        assignment = placer.place(graph)
        victim = next(sp_id for sp_id in graph.sps if sp_id.startswith("b"))
        # Simulate the deployment holding its nodes.
        for index in assignment.values():
            env.bluegene.node(index).acquire()
        try:
            target, _ = placer.replace_one(graph, victim, assignment)
        finally:
            for index in assignment.values():
                env.bluegene.node(index).release()
        assert target not in set(assignment.values())

    def test_unknown_victim_raises(self):
        from repro.util.errors import AllocationError

        env, graph, placer, assignment = self._placed()
        with pytest.raises(AllocationError, match="unknown stream process"):
            placer.replace_one(graph, "ghost@9", assignment)

    def test_bounds_are_labelled_by_family(self):
        env, graph, placer, assignment = self._placed()
        bounds = placer.predicted_bounds(graph, assignment)
        # An all-BlueGene merge constrains only the torus family.
        assert set(bounds) == {"torus"}
        assert bounds["torus"] == placer.predicted_bandwidth(graph, assignment)

        inbound_env = Environment()
        inbound_graph = compile_graph(automatic_inbound_query(2, 500_000, 3))
        inbound_placer = CostBasedPlacer(inbound_env, ExecutionSettings())
        inbound_assignment = inbound_placer.place(inbound_graph)
        assert "inbound" in inbound_placer.predicted_bounds(
            inbound_graph, inbound_assignment
        )

    def test_measured_factor_scales_the_binding_bound(self):
        """A measured/predicted factor of 0.5 on the binding family must
        halve the objective — the cost model now speaks measured units."""
        env, graph, placer, assignment = self._placed()
        baseline = placer.predicted_bandwidth(graph, assignment)
        calibrated = placer.predicted_bandwidth(
            graph, assignment, {"torus": 0.5}
        )
        assert calibrated == pytest.approx(0.5 * baseline)
        # A factor on an absent family changes nothing.
        assert placer.predicted_bandwidth(
            graph, assignment, {"inbound": 0.5}
        ) == baseline

    def test_calibration_preserves_the_argmax_under_uniform_factors(self):
        """Scaling every candidate by one family factor cannot change which
        node wins, only the score — so a stale-but-uniform calibration
        degrades gracefully."""
        env, graph, placer, assignment = self._placed()
        victim = next(sp_id for sp_id in graph.sps if sp_id.startswith("b"))
        plain_target, plain_score = placer.replace_one(graph, victim, assignment)
        scaled_target, scaled_score = placer.replace_one(
            graph, victim, assignment, {"torus": 0.25}
        )
        assert scaled_target == plain_target
        assert scaled_score == pytest.approx(0.25 * plain_score)

    def test_prediction_tracks_the_simulated_bandwidth(self):
        """The calibration regression: on the placed merge topology the
        analytic objective must stay within the cost model's committed
        tolerance of the simulated rate, keeping measured/predicted factors
        near 1 when nothing is wrong."""
        settings = ExecutionSettings(mpi_buffer_bytes=100_000)
        env = Environment()
        graph = compile_graph(MERGE_QUERY)
        placer = CostBasedPlacer(env, settings)
        assignment = placer.place(graph)
        predicted = placer.predicted_bandwidth(graph, assignment)
        report = Deployer(env).run(graph, settings=settings)
        simulated = 2 * 200_000 * 10 / report.duration  # bytes/s
        assert predicted == pytest.approx(simulated, rel=0.15)


class TestCandidatesAgreeWithResolver:
    """The placer's candidate filter and the placement resolver ask one
    question of a node (``Node.can_host``): whatever the placer offers for
    an SP, the resolver accepts when that SP is pinned there."""

    @staticmethod
    def _damaged_environment():
        from repro.hardware.cndb import ComputeNodeDatabase

        env = Environment()
        # An I/O node listed in the CNDB: communication only, never a host.
        io_node = env.bluegene.io_nodes[0].replace(index=100)
        env.cndbs["bg"] = ComputeNodeDatabase(
            "bg", env.cndb("bg").all_nodes() + [io_node]
        )
        env.node("bg", 2).acquire()
        env.node("bg", 5).fail()
        env.node("be", 0).acquire()  # Linux: busy but still available
        env.node("be", 1).fail()
        return env

    @staticmethod
    def _resolver_codes(env, graph, pins):
        from repro.coordinator import QueryGraph, SPDef
        from repro.coordinator.allocation import AllocationSequence, NaiveSelector
        from repro.coordinator.resolver import resolve_placement

        pinned = QueryGraph()  # the walk over just the pinned SPs
        for sp_id, index in pins.items():
            sp = graph.sps[sp_id]
            pinned.add(SPDef(sp_id, sp.cluster, sp.plan, AllocationSequence(index)))
        saved = env.template.snapshot()  # each walk starts from the damage
        _, diagnostics = resolve_placement(pinned, env, NaiveSelector())
        env.template.restore(saved)
        return [d.code for d in diagnostics]

    def test_every_candidate_is_a_node_the_resolver_accepts(self):
        env = self._damaged_environment()
        graph = compile_graph(automatic_inbound_query(2, 1000, 2))
        placer = CostBasedPlacer(env, ExecutionSettings())
        offered = {"bg": set(), "be": set()}
        for sp in graph.sps.values():
            candidates = placer._candidates(sp.cluster, sp.sp_id, graph, {})
            assert candidates
            offered[sp.cluster].update(candidates)
            for index in candidates:
                assert self._resolver_codes(env, graph, {sp.sp_id: index}) == []
        assert offered["bg"].isdisjoint({2, 5, 100})
        assert 1 not in offered["be"] and 0 in offered["be"]
        # ...and what the placer withholds, the resolver refuses.
        receiver = next(sp_id for sp_id in graph.sps if sp_id.startswith("b["))
        # (bg:5 is dead, not held: its own finding.)
        for index, code in ((2, "SCSQ201"), (5, "SCSQ108"), (100, "SCSQ201")):
            assert self._resolver_codes(env, graph, {receiver: index}) == [code]

    def test_occupancy_of_the_assignment_under_search_counts(self):
        env = self._damaged_environment()
        graph = compile_graph(MERGE_QUERY)
        first, second = list(graph.sps)[:2]
        placer = CostBasedPlacer(env, ExecutionSettings())
        candidates = placer._candidates("bg", second, graph, {first: 9})
        assert 9 not in candidates
        for index in candidates:
            assert self._resolver_codes(env, graph, {first: 9, second: index}) == []
        assert self._resolver_codes(env, graph, {first: 9, second: 9}) == ["SCSQ103"]
