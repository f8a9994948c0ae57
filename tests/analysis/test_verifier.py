"""The static plan verifier: one test per diagnostic code.

Every SCSQxxx code in ``docs/static-analysis.md`` has a minimal triggering
query here, and the clean paths (the paper's own sweep queries) verify
without diagnostics.
"""

from types import SimpleNamespace

import pytest

from repro.analysis import AnalysisReport, Severity, verify_plan
from repro.coordinator.deployer import Deployer
from repro.coordinator.graph import check_structure
from repro.core.experiments.fig6 import point_to_point_query, scaled_workload
from repro.core.experiments.fig15 import inbound_query
from repro.hardware.environment import Environment, EnvironmentConfig, shared_template
from repro.scsql.plan import compile_plan
from repro.util.errors import PlanVerificationError


def verify(query: str, **kwargs) -> AnalysisReport:
    return verify_plan(compile_plan(query), **kwargs)


def codes(report: AnalysisReport):
    return [d.code for d in report.diagnostics]


class TestCleanPlans:
    def test_fig6_query_is_clean(self):
        array_bytes, count = scaled_workload(1000, 30)
        report = verify(point_to_point_query(array_bytes, count))
        assert report.diagnostics == []
        assert report.ok(strict=True)

    def test_unconstrained_placement_is_clean(self):
        report = verify(
            "select count(extract(a)) from sp a "
            "where a=sp(gen_array(10,5), 'bg')"
        )
        assert report.diagnostics == []


class TestPlacementCodes:
    def test_scsq102_nonexistent_explicit_node(self):
        report = verify(
            "select count(extract(a)) from sp a "
            "where a=sp(gen_array(10,5), 'bg', 99)"
        )
        assert codes(report) == ["SCSQ102"]
        assert not report.ok()
        assert "does not exist" in report.diagnostics[0].message
        # The diagnostic carries the source span of the sp() call.
        assert report.diagnostics[0].span is not None

    def test_scsq103_over_subscribed_node(self):
        report = verify(
            "select count(merge({a,b})) from sp a, sp b "
            "where a=sp(gen_array(10,5), 'bg', 1) "
            "and b=sp(gen_array(10,5), 'bg', 1)"
        )
        assert codes(report) == ["SCSQ103"]
        assert "over-subscribed" in report.diagnostics[0].message

    def test_scsq104_exhausted_allocation_sequence(self):
        # Nine spv members squeezed into one 8-node pset of single-process
        # CNK nodes: the ninth selection exhausts the sequence.
        report = verify(
            "select count(merge(a)) from bag of sp a, integer n "
            "where a=spv((select gen_array(10,5) from integer i "
            "where i in iota(1,n)), 'bg', inPset(0)) and n=9"
        )
        assert codes(report) == ["SCSQ104"]
        assert "exhausted" in report.diagnostics[0].message

    def test_scsq103_and_scsq104_are_distinct(self):
        over = verify(
            "select count(merge({a,b})) from sp a, sp b "
            "where a=sp(gen_array(10,5), 'bg', 2) "
            "and b=sp(gen_array(10,5), 'bg', 2)"
        )
        exhausted = verify(
            "select count(merge(a)) from bag of sp a, integer n "
            "where a=spv((select gen_array(10,5) from integer i "
            "where i in iota(1,n)), 'bg', inPset(1)) and n=9"
        )
        assert codes(over) != codes(exhausted)

    def test_scsq105_nonexistent_pset(self):
        report = verify(
            "select count(extract(a)) from sp a "
            "where a=sp(gen_array(10,5), 'bg', inPset(99))"
        )
        assert codes(report) == ["SCSQ105"]

    def test_scsq201_cross_plan_double_allocation(self):
        # The first plan is deployed: the second plan's pinned node is
        # already held by it.
        deployer = Deployer(Environment(EnvironmentConfig()))
        query = (
            "select count(extract(a)) from sp a "
            "where a=sp(gen_array(10,5), 'bg', 3)"
        )
        first = deployer.place(compile_plan(query))
        assert deployer.verify(first, label="first").diagnostics == []
        deployer.deploy(first)
        second = deployer.verify(compile_plan(query), label="second")
        assert codes(second) == ["SCSQ201"]
        assert second.diagnostics[0].message == (
            "node bg:3 selected by 'a@1' is already allocated by a "
            "pre-existing deployment"
        )

    def test_scsq201_against_live_environment(self):
        env = Environment(EnvironmentConfig())
        env.cndb("bg").node(5).acquire()
        report = verify(
            "select count(extract(a)) from sp a "
            "where a=sp(gen_array(10,5), 'bg', 5)",
            env=env,
        )
        assert codes(report) == ["SCSQ201"]
        assert "pre-existing deployment" in report.diagnostics[0].message

    def test_scsq108_pinned_node_has_failed(self):
        # A dead node is not "allocated by another deployment": nobody
        # holds it.  The verdict names the failure, held slot or not.
        query = (
            "select count(extract(a)) from sp a "
            "where a=sp(gen_array(10,5), 'bg', 5)"
        )
        for held in (False, True):
            env = Environment(EnvironmentConfig())
            node = env.cndb("bg").node(5)
            if held:
                node.acquire()
            node.fail()
            report = verify(query, env=env)
            assert codes(report) == ["SCSQ108"]
            assert "bg:5" in report.diagnostics[0].message
            assert "has failed" in report.diagnostics[0].message
            assert "allocated" not in report.diagnostics[0].message


class TestAdvisoryCodes:
    def test_scsq301_cross_pset_stream_warns(self):
        # Producer pinned to pset 1 (node 8), consumer to pset 0 (node 0).
        report = verify(
            "select extract(b) from sp a, sp b "
            "where b=sp(count(extract(a)), 'bg', 0) "
            "and a=sp(gen_array(10,5), 'bg', 8)"
        )
        assert codes(report) == ["SCSQ301"]
        assert report.diagnostics[0].severity is Severity.WARNING
        assert report.ok()  # warnings pass by default...
        assert not report.ok(strict=True)  # ...and fail strict mode

    def test_scsq401_shared_io_proxy_funnel(self):
        # Figure 15 Query 1: n back-end senders funnel into ONE BlueGene
        # consumer — every connection shares that pset's io-proxy.
        report = verify(inbound_query(1, 4, 1000, 2))
        assert "SCSQ401" in codes(report)
        found = next(d for d in report.diagnostics if d.code == "SCSQ401")
        assert found.severity is Severity.WARNING
        assert "share the I/O-node proxy" in found.message
        assert "Mbps" in found.message

    def test_scsq402_multi_host_uplink_info(self):
        # Query 2 spreads senders over several be hosts: the shared-uplink
        # coordination penalty is reported at info level.
        report = verify(inbound_query(2, 4, 1000, 2))
        assert "SCSQ402" in codes(report)
        found = next(d for d in report.diagnostics if d.code == "SCSQ402")
        assert found.severity is Severity.INFO
        assert report.ok()  # advisory only: the plan still deploys

    def test_pset_spread_receivers_avoid_scsq401(self):
        # psetrr() receivers engage one io-proxy each: no funnel at n=4.
        report = verify(inbound_query(5, 4, 1000, 2))
        assert "SCSQ401" not in codes(report)


class _StubGraph:
    """A minimal graph for structure-pass unit tests.

    ``edges`` maps sp_id -> producer ids; ``root`` is what the client
    manager's root plan consumes.  Each sp's ``plan`` is its own id, which
    ``producers_of`` resolves through ``edges``.
    """

    def __init__(self, edges, root=()):
        self.sps = {
            sp_id: SimpleNamespace(sp_id=sp_id, plan=sp_id, span=None)
            for sp_id in edges
        }
        self._edges = dict(edges)
        self.root_plan = "__root__"
        self._root = list(root)

    def producers_of(self, plan):
        if plan == "__root__":
            return self._root
        return self._edges[plan]


class TestStructureCodes:
    def _structure(self, graph):
        errors, warnings = check_structure(graph)
        report = AnalysisReport(label="stub", diagnostics=errors + warnings)
        return not errors, report

    def test_scsq002_unknown_producer(self):
        ok, report = self._structure(_StubGraph({"a": ["ghost"]}, root=["a"]))
        assert not ok
        assert codes(report) == ["SCSQ002"]

    def test_scsq003_subscription_cycle(self):
        ok, report = self._structure(
            _StubGraph({"a": ["b"], "b": ["a"]}, root=["a"])
        )
        assert not ok
        assert codes(report) == ["SCSQ003"]
        assert "deadlocks" in report.diagnostics[0].message

    def test_scsq004_dangling_stream(self):
        ok, report = self._structure(
            _StubGraph({"a": [], "b": []}, root=["a"])
        )
        assert ok  # a warning, not an error
        assert codes(report) == ["SCSQ004"]
        assert report.diagnostics[0].severity is Severity.WARNING
        assert "'b'" in report.diagnostics[0].message

    def test_compiled_queries_are_acyclic_and_fully_consumed(self):
        report = verify(
            "select extract(b) from sp a, sp b "
            "where b=sp(count(extract(a)), 'bg') and a=sp(gen_array(10,5), 'bg')"
        )
        assert report.diagnostics == []


class TestReportAPI:
    def test_raise_if_failed_attaches_diagnostics(self):
        report = verify(
            "select count(extract(a)) from sp a "
            "where a=sp(gen_array(10,5), 'bg', 99)"
        )
        with pytest.raises(PlanVerificationError) as exc_info:
            report.raise_if_failed()
        assert [d.code for d in exc_info.value.diagnostics] == ["SCSQ102"]

    def test_strict_mode_promotes_warnings(self):
        report = verify(
            "select extract(b) from sp a, sp b "
            "where b=sp(count(extract(a)), 'bg', 0) "
            "and a=sp(gen_array(10,5), 'bg', 8)"
        )
        report.raise_if_failed(strict=False)  # warnings pass
        with pytest.raises(PlanVerificationError):
            report.raise_if_failed(strict=True)

    def test_json_round_trip(self):
        import json

        report = verify(
            "select count(extract(a)) from sp a "
            "where a=sp(gen_array(10,5), 'bg', 99)"
        )
        payload = json.loads(report.to_json())
        assert payload["label"] == "query"
        assert payload["diagnostics"][0]["code"] == "SCSQ102"
        assert payload["diagnostics"][0]["severity"] == "error"


class TestSnapshot:
    PINNED_5 = (
        "select count(extract(a)) from sp a where a=sp(gen_array(10,5), 'bg', 5)"
    )
    OTHER = (
        "select count(merge({a,b})) from sp a, sp b "
        "where a=sp(gen_array(10,5), 'bg', 5) and b=sp(gen_array(10,5), 'bg')"
    )

    def test_config_means_a_fresh_topology_under_a_live_fork(self):
        # A live fork of the shared template hosts a deployment on bg:5;
        # verify_plan(config=) still sees an idle topology, and leaves the
        # fork's state exactly as it found it.
        config = EnvironmentConfig()
        idle = verify(self.OTHER, config=config)
        assert idle.ok()
        template = shared_template(config)
        deployer = Deployer(template.fork())
        deployment = deployer.deploy(deployer.place(compile_plan(self.PINNED_5)))
        busy = template.snapshot()
        assert verify(self.OTHER, config=config) == idle
        assert template.snapshot() == busy
        assert not verify(self.OTHER, env=deployer.env).ok()  # env=: live state
        assert template.snapshot() == busy
        deployment.teardown()

    def test_verification_does_not_mutate_environment(self):
        env = Environment(EnvironmentConfig())
        before = {
            node.node_id
            for name in ("bg", "be", "fe")
            for node in env.cndb(name).all_nodes()
            if node.is_available
        }
        verify_plan(
            compile_plan(
                "select count(extract(a)) from sp a "
                "where a=sp(gen_array(10,5), 'bg', 1)"
            ),
            env=env,
        )
        after = {
            node.node_id
            for name in ("bg", "be", "fe")
            for node in env.cndb(name).all_nodes()
            if node.is_available
        }
        assert before == after
