"""The analytic predictors must agree with the simulator.

The optimizer reasons entirely with :mod:`repro.optimizer.predict`; if the
predictions drift from what the simulation charges, placement decisions
become wrong silently.  These tests pin prediction-vs-simulation agreement
for all three experiment families.
"""

import pytest

from repro.core.experiments import FIGURES
from repro.core.measurement import run_sweep
from repro.net.params import NetworkParams
from repro.optimizer.predict import (
    InboundShape,
    predict_inbound_bandwidth,
    predict_merge_bandwidth,
    predict_p2p_bandwidth,
)
from repro.util.units import MEGA

PARAMS = NetworkParams()
TOLERANCE = 0.15  # relative prediction error allowed
(FIG6,), (FIG8,), (FIG15,) = (FIGURES[name] for name in ("fig6", "fig8", "fig15"))


def mbps(bytes_per_second: float) -> float:
    return bytes_per_second * 8 / MEGA


class TestP2pPrediction:
    @pytest.fixture(scope="class")
    def measured(self):
        return run_sweep(
            FIG6, buffer_sizes=(200, 1000, 100_000), repeats=2, target_buffers=800
        )

    @pytest.mark.parametrize("buffer_bytes", [200, 1000, 100_000])
    @pytest.mark.parametrize("double", [False, True])
    def test_matches_simulation(self, measured, buffer_bytes, double):
        simulated = measured.at(buffer_bytes, double).mean_mbps
        predicted = mbps(predict_p2p_bandwidth(PARAMS, buffer_bytes, double))
        assert predicted == pytest.approx(simulated, rel=TOLERANCE)

    def test_predicts_the_optimum_at_1000(self):
        sizes = (200, 500, 1000, 2000, 100_000)
        for double in (False, True):
            curve = {b: predict_p2p_bandwidth(PARAMS, b, double) for b in sizes}
            assert max(curve, key=curve.get) == 1000

    def test_multi_hop_is_slower(self):
        one = predict_p2p_bandwidth(PARAMS, 100_000, True, hops=1)
        three = predict_p2p_bandwidth(PARAMS, 100_000, True, hops=3)
        assert three < one


class TestMergePrediction:
    @pytest.fixture(scope="class")
    def measured(self):
        return run_sweep(
            FIG8, buffer_sizes=(1000, 100_000), repeats=2, target_buffers=500
        )

    @pytest.mark.parametrize("buffer_bytes", [1000, 100_000])
    @pytest.mark.parametrize("balanced", [False, True])
    def test_matches_simulation(self, measured, buffer_bytes, balanced):
        simulated = measured.at(buffer_bytes, balanced, True).mean_mbps
        predicted = mbps(
            predict_merge_bandwidth(
                PARAMS,
                buffer_bytes,
                True,
                through_busy_intermediate=not balanced,
                max_hops=1 if balanced else 2,
            )
        )
        assert predicted == pytest.approx(simulated, rel=TOLERANCE)

    def test_predicts_the_sixty_percent_gap(self):
        balanced = predict_merge_bandwidth(PARAMS, 200_000, True)
        sequential = predict_merge_bandwidth(
            PARAMS, 200_000, True, through_busy_intermediate=True, max_hops=2
        )
        assert 1.4 <= balanced / sequential <= 1.9


class TestInboundPrediction:
    SHAPES = {
        (1, 1): InboundShape(streams=1, hosts=1, io_nodes=1, receivers=1),
        (1, 4): InboundShape(streams=4, hosts=1, io_nodes=1, receivers=1),
        (2, 4): InboundShape(streams=4, hosts=4, io_nodes=1, receivers=1),
        (5, 4): InboundShape(streams=4, hosts=1, io_nodes=4, receivers=4),
        (6, 4): InboundShape(streams=4, hosts=4, io_nodes=4, receivers=4),
    }

    @pytest.fixture(scope="class")
    def measured(self):
        return run_sweep(
            FIG15, stream_counts=(1, 4), queries=(1, 2, 5, 6), repeats=2, array_count=5
        )

    @pytest.mark.parametrize("query,n", [(1, 1), (1, 4), (2, 4), (5, 4), (6, 4)])
    def test_matches_simulation(self, measured, query, n):
        simulated = measured.at(query, n).mean_mbps
        predicted = mbps(predict_inbound_bandwidth(PARAMS, self.SHAPES[(query, n)]))
        assert predicted == pytest.approx(simulated, rel=TOLERANCE)

    def test_predicts_the_orderings(self):
        values = {
            key: predict_inbound_bandwidth(PARAMS, shape)
            for key, shape in self.SHAPES.items()
        }
        assert values[(1, 4)] > values[(2, 4)]      # co-locate hosts
        assert values[(5, 4)] > values[(6, 4)]      # Q5 beats Q6
        assert values[(5, 4)] > 2 * values[(1, 4)]  # many I/O nodes win

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            InboundShape(streams=2, hosts=3, io_nodes=1, receivers=1)
        with pytest.raises(ValueError):
            InboundShape(streams=2, hosts=1, io_nodes=0, receivers=1)
