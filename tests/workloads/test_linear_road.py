"""Unit tests for the mini Linear Road workload and keyed windows."""

import pytest

from repro.engine.operators import GroupWindowAggregate
from repro.util.errors import QueryExecutionError
from repro.workloads.linear_road import (
    CONGESTION_SPEED,
    Accident,
    expected_congested_windows,
    partition_by_segment,
    position_reports,
)
from tests.conftest import run_operator


class TestWorkloadGenerator:
    def test_deterministic(self):
        a = position_reports(5, 4, 20, seed=3)
        b = position_reports(5, 4, 20, seed=3)
        assert a == b

    def test_report_shape_and_volume(self):
        reports = position_reports(3, 4, 10, seed=0)
        assert len(reports) == 30
        for tick, vid, segment, speed in reports:
            assert 0 <= tick < 10
            assert 0 <= vid < 3
            assert 0 <= segment < 4
            assert speed > 0

    def test_accident_depresses_speeds(self):
        accident = Accident(segment=1, start_tick=0, end_tick=50)
        reports = position_reports(10, 4, 50, seed=1, accident=accident)
        in_accident = [r[3] for r in reports if r[2] == 1]
        elsewhere = [r[3] for r in reports if r[2] != 1]
        assert max(in_accident) < CONGESTION_SPEED
        assert min(elsewhere) > CONGESTION_SPEED

    def test_partitioning_is_complete(self):
        reports = position_reports(6, 3, 12, seed=2)
        partitions = partition_by_segment(reports, 3)
        assert sum(len(p) for p in partitions.values()) == len(reports)
        for segment, rows in partitions.items():
            assert all(r[2] == segment for r in rows)

    def test_validation(self):
        with pytest.raises(QueryExecutionError):
            position_reports(0, 3, 5)

    def test_reference_congestion_count(self):
        speeds = [60.0] * 10 + [20.0] * 10
        # windows of 5: two free-flow, two congested
        assert expected_congested_windows(speeds, 5) == 2


class TestGroupWindowAggregate:
    REPORTS = [
        (0, 1, 0, 50.0),
        (1, 2, 0, 30.0),
        (2, 1, 0, 60.0),
        (3, 2, 0, 40.0),
        (4, 1, 0, 70.0),
    ]

    def test_per_key_tumbling_windows(self, env):
        out = run_operator(
            env,
            GroupWindowAggregate,
            [self.REPORTS],
            fn="avg",
            size=2,
            key_index=1,
            value_index=3,
        )
        assert (1, 55.0) in out  # vehicle 1: (50+60)/2
        assert (2, 35.0) in out  # vehicle 2: (30+40)/2
        # vehicle 1's leftover partial window flushes at EOS
        assert (1, 70.0) in out

    def test_partial_flush_disabled(self, env):
        out = run_operator(
            env,
            GroupWindowAggregate,
            [self.REPORTS],
            fn="avg",
            size=2,
            key_index=1,
            value_index=3,
            flush_partial=False,
        )
        assert (1, 70.0) not in out

    def test_bad_field_index(self, env):
        with pytest.raises(QueryExecutionError, match="could not read"):
            run_operator(
                env,
                GroupWindowAggregate,
                [[(1, 2)]],
                fn="avg",
                size=2,
                key_index=5,
                value_index=1,
            )

    def test_unknown_aggregate(self, env):
        with pytest.raises(QueryExecutionError):
            run_operator(
                env, GroupWindowAggregate, [[]], fn="median", size=2,
                key_index=0, value_index=1,
            )


class TestScsqlGroupwin:
    def test_groupwin_in_query(self):
        from repro.scsql.session import SCSQSession

        reports = TestGroupWindowAggregate.REPORTS
        session = SCSQSession()
        session.register_source("lr-reports", lambda: iter(reports))
        report = session.execute(
            "select extract(b) from sp a, sp b "
            "where b=sp(groupwin(extract(a), 'avg', 2, 1, 3), 'bg') "
            "and a=sp(receiver('lr-reports'), 'bg');"
        )
        assert (1, 55.0) in report.result
        assert (2, 35.0) in report.result
