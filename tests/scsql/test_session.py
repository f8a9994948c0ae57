"""End-to-end tests of SCSQL sessions (parse -> compile -> execute)."""

import numpy as np
import pytest

from repro.engine.operators.sources import external_sources
from repro.engine.settings import ExecutionSettings
from repro.scsql.session import SCSQSession
from repro.util.errors import QueryExecutionError, QuerySemanticError
from repro.workloads import corpus, make_signal_source, signal_stream


class TestSimpleQueries:
    def test_count_of_generated_stream(self):
        session = SCSQSession()
        report = session.execute(
            "select extract(b) from sp a, sp b "
            "where b=sp(streamof(count(extract(a))), 'bg', 0) "
            "and a=sp(gen_array(10000,7), 'bg', 1);"
        )
        assert report.scalar_result == 7

    def test_sum_of_iota(self):
        session = SCSQSession()
        report = session.execute(
            "select extract(b) from sp a, sp b "
            "where b=sp(sum(extract(a)), 'bg') and a=sp(iota(1,100), 'bg');"
        )
        assert report.scalar_result == 5050

    def test_create_function_returns_none(self):
        session = SCSQSession()
        result = session.execute(
            "create function f() -> stream as select extract(a) from sp a "
            "where a=sp(iota(1,3), 'bg');"
        )
        assert result is None

    def test_function_redefinition_rejected(self):
        session = SCSQSession()
        definition = (
            "create function f() -> stream as select extract(a) from sp a "
            "where a=sp(iota(1,3), 'bg');"
        )
        session.execute(definition)
        with pytest.raises(QuerySemanticError, match="already defined"):
            session.execute(definition)

    def test_window_aggregate_in_query(self):
        session = SCSQSession()
        report = session.execute(
            "select extract(b) from sp a, sp b "
            "where b=sp(winagg(extract(a), 'sum', 3), 'bg') "
            "and a=sp(iota(1,5), 'bg');"
        )
        assert report.result == [6, 9, 12]

    def test_compile_without_execution(self):
        session = SCSQSession()
        graph = session.compile(
            "select extract(a) from sp a where a=sp(iota(1,3), 'bg');"
        )
        assert len(graph.sps) == 1
        # Nothing ran: simulated time untouched.
        assert session.env.sim.now == 0.0


class TestMapReduceGrep:
    """The paper's distributed grep example, scaled down."""

    def test_parallel_grep_counts_markers(self):
        session = SCSQSession()
        n_files = 6
        report = session.execute(
            f"""
            select count(merge(g)) from bag of sp g
            where g=spv(
              (select grep('{corpus.MARKER}', filename(i))
               from integer i where i in iota(1,{n_files})),
              'be', urr('be'));
            """
        )
        assert report.scalar_result == n_files * corpus.expected_marker_count()

    def test_grep_lines_delivered(self):
        session = SCSQSession()
        report = session.execute(
            f"""
            select merge(g) from bag of sp g
            where g=spv(
              (select grep('{corpus.MARKER}', filename(i))
               from integer i where i in iota(1,2)),
              'be', 1);
            """
        )
        assert len(report.result) == 2 * corpus.expected_marker_count()
        assert all(corpus.MARKER in line for line in report.result)


class TestRadix2:
    """The paper's radix2 FFT parallelization, verified against numpy."""

    RADIX2 = """
    create function radix2(string s) -> stream
    as select radixcombine(merge({a,b}))
    from sp a, sp b, sp c
    where a=sp(fft(odd(extract(c))), 'bg')
    and b=sp(fft(even(extract(c))), 'bg')
    and c=sp(receiver(s), 'bg');
    """

    def test_radix2_matches_numpy(self):
        source = "radix2-test-signals"
        session = SCSQSession()
        session.register_source(source, make_signal_source(4, n_points=128, seed=11))
        session.execute(self.RADIX2)
        report = session.execute(f"select radix2('{source}') from integer z where z=0;")
        expected = [np.fft.fft(x) for x in signal_stream(4, n_points=128, seed=11)]
        assert len(report.result) == 4
        for got, want in zip(report.result, expected):
            assert np.allclose(got, want)

    def test_unregistered_source_fails_at_execution(self):
        session = SCSQSession()
        session.execute(self.RADIX2)
        with pytest.raises(Exception, match="no external source"):
            session.execute("select radix2('ghost-source') from integer z where z=0;")


class TestExternalSources:
    COUNT = ("select extract(b) from sp a, sp b where b=sp(count(extract(a)), 'bg') "
             "and a=sp(receiver('s'), 'bg');")

    def test_two_sessions_keep_their_own_source_of_one_name(self):
        first, second = SCSQSession(), SCSQSession()
        first.register_source("s", lambda: iter([1, 2, 3]))
        second.register_source("s", lambda: iter([10, 20]))
        assert first.execute(self.COUNT).result == [3]
        assert second.execute(self.COUNT).result == [2]

    def test_an_inner_scope_shadows_an_outer_name_until_it_exits(self):
        session = SCSQSession()
        session.register_source("s", lambda: iter([1, 2, 3]))
        with external_sources({"s": lambda: iter([1]), "t": lambda: iter([1, 2])}):
            assert session.execute(self.COUNT).result == [3]
            assert session.execute(self.COUNT.replace("'s'", "'t'")).result == [2]
        with pytest.raises(QueryExecutionError, match=r"known sources: \['s'\]"):
            session.execute(self.COUNT.replace("'s'", "'t'"))


class TestSettingsPlumb:
    def test_buffer_settings_change_timing(self):
        query = (
            "select extract(b) from sp a, sp b "
            "where b=sp(count(extract(a)), 'bg', 0) "
            "and a=sp(gen_array(300000,5), 'bg', 1);"
        )
        fast = SCSQSession().execute(query, ExecutionSettings(mpi_buffer_bytes=1000))
        slow = SCSQSession().execute(query, ExecutionSettings(mpi_buffer_bytes=100))
        assert fast.duration < slow.duration


class TestExplain:
    QUERY = (
        "select extract(c) from sp a, sp b, sp c "
        "where c=sp(count(merge({a,b})), 'bg') "
        "and a=sp(gen_array(200000,10), 'bg') "
        "and b=sp(gen_array(200000,10), 'bg');"
    )

    def test_shows_plans_and_placement(self):
        text = SCSQSession().explain(self.QUERY)
        assert "gen_array(200000, 10)" in text
        assert "merge()" in text
        assert "optimizer placement:" in text
        assert "predicted bottleneck bandwidth" in text

    def test_explicit_allocations_are_marked(self):
        text = SCSQSession().explain(
            "select extract(a) from sp a where a=sp(iota(1,3), 'bg', 7);"
        )
        assert "(explicit allocation)" in text
        assert "optimizer placement:" not in text

    def test_explain_does_not_execute_or_pin(self):
        session = SCSQSession()
        session.explain(self.QUERY)
        assert session.env.sim.now == 0.0
        graph = session.compile(self.QUERY)
        assert all(sp.allocation is None for sp in graph.sps.values())
