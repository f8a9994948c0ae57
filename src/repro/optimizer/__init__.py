"""The query optimizer: cost-model predictions and automatic placement.

The paper collects its measurements "to provide a basis for automatic CPU
allocation strategies"; this package is that basis made executable — an
analytic model of the calibrated communication substrate
(:mod:`repro.optimizer.predict`, validated against the simulator by the
test suite) and a placement search that uses it
(:mod:`repro.optimizer.placement`).
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "CostBasedPlacer",
    "InboundShape",
    "predict_p2p_bandwidth",
    "predict_merge_bandwidth",
    "predict_inbound_bandwidth",
]

__getattr__ = lazy_exports(__name__, {
    "repro.optimizer.placement": ("CostBasedPlacer",),
    "repro.optimizer.predict": (
        "InboundShape", "predict_inbound_bandwidth", "predict_merge_bandwidth",
        "predict_p2p_bandwidth",
    ),
})
