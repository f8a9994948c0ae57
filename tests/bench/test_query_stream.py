"""The numbered-stream query deck: orders, payloads, correctness.

The harness's claims under test: every deck query is a pure function of
``(kind, stream_id, scale, seed)``, its payload model matches what the
engine actually marshals, and its reference result matches what the
deployed query actually computes.
"""

import pytest

from repro.bench.query_stream import (
    DEFAULT_SCALE,
    QUERY_KINDS,
    SMOKE_SCALE,
    build_query,
    grep_line_count,
    query_order,
    registered,
)
from repro.coordinator.deployer import Deployer
from repro.hardware.environment import Environment, EnvironmentConfig
from repro.scsql.plan import compile_plan
from repro.util.errors import QueryExecutionError
from repro.workloads import corpus


class TestQueryOrder:
    def test_stream_zero_runs_canonical_order(self):
        assert query_order(0) == list(QUERY_KINDS)
        assert query_order(0, seed=99) == list(QUERY_KINDS)

    def test_orders_are_deterministic(self):
        for stream_id in range(6):
            assert query_order(stream_id, seed=3) == query_order(stream_id, seed=3)

    def test_every_order_is_a_deck_permutation(self):
        for stream_id in range(8):
            assert sorted(query_order(stream_id)) == sorted(QUERY_KINDS)

    def test_adjacent_streams_open_with_different_kinds(self):
        # The TPC-H property the rotation guarantees: in every throughput
        # round, neighbouring streams run different query kinds.
        openers = [query_order(k)[0] for k in range(4)]
        for left, right in zip(openers, openers[1:]):
            assert left != right

    def test_negative_stream_rejected(self):
        with pytest.raises(QueryExecutionError, match="stream id"):
            query_order(-1)


class TestBuildQuery:
    def test_unknown_kind_rejected(self):
        with pytest.raises(QueryExecutionError, match="unknown bench query kind"):
            build_query("sort", 0, SMOKE_SCALE)

    def test_negative_stream_rejected(self):
        with pytest.raises(QueryExecutionError, match="stream id"):
            build_query("grep", -2, SMOKE_SCALE)

    @pytest.mark.parametrize("kind", QUERY_KINDS)
    def test_pure_function_of_coordinates(self, kind):
        first = build_query(kind, 1, SMOKE_SCALE, seed=5)
        second = build_query(kind, 1, SMOKE_SCALE, seed=5)
        assert first.query == second.query
        assert first.payload_bytes == second.payload_bytes
        assert first.expected_result == second.expected_result
        assert first.name == second.name == f"{kind}:s1"

    @pytest.mark.parametrize("kind", QUERY_KINDS)
    def test_payload_positive_and_scales_up(self, kind):
        small = build_query(kind, 0, SMOKE_SCALE)
        large = build_query(kind, 0, DEFAULT_SCALE)
        assert 0 < small.payload_bytes < large.payload_bytes

    @pytest.mark.parametrize("kind", QUERY_KINDS)
    def test_deck_queries_compile(self, kind):
        plan = compile_plan(build_query(kind, 2, DEFAULT_SCALE).query)
        assert plan.instantiate().sps

    def test_streams_use_distinct_source_names(self):
        a = build_query("signals", 0, SMOKE_SCALE)
        b = build_query("signals", 1, SMOKE_SCALE)
        assert not set(a.sources) & set(b.sources)

    def test_streams_grep_distinct_file_ranges(self):
        a = build_query("grep", 0, SMOKE_SCALE)
        b = build_query("grep", 1, SMOKE_SCALE)
        assert a.query != b.query
        assert f"iota(1,{SMOKE_SCALE.grep_files})" in a.query

    def test_grep_payload_matches_operator_read_length(self):
        # The grep operator reads corpus files at their default length;
        # the payload model must agree with it, not with a deck knob.
        query = build_query("grep", 0, SMOKE_SCALE)
        assert query.expected_result == grep_line_count(SMOKE_SCALE)
        assert grep_line_count(SMOKE_SCALE) == (
            SMOKE_SCALE.grep_files * corpus.expected_marker_count()
        )


def _deploy(query):
    return Deployer(Environment(EnvironmentConfig())).run(compile_plan(query.query))


class TestRegistered:
    def test_registers_then_unregisters(self):
        query = build_query("signals", 3, SMOKE_SCALE)
        with registered([query]):
            assert _deploy(query).result == [query.expected_result]
        with pytest.raises(QueryExecutionError, match="no external source"):
            _deploy(query)

    def test_unregisters_on_error(self):
        query = build_query("signals", 3, SMOKE_SCALE)
        with pytest.raises(RuntimeError):
            with registered([query]):
                raise RuntimeError("boom")
        with pytest.raises(QueryExecutionError, match="no external source"):
            _deploy(query)


class TestDeckCorrectness:
    """Every deck query, deployed for real, produces its reference result."""

    @pytest.mark.parametrize("kind", QUERY_KINDS)
    def test_smoke_deck_query_produces_reference_result(self, kind):
        query = build_query(kind, 0, SMOKE_SCALE)
        with registered([query]):
            env = Environment(EnvironmentConfig())
            report = Deployer(env).run(compile_plan(query.query))
        assert report.result == [query.expected_result]
        assert query.expected_result > 0
        assert report.duration > 0.0
