"""Physical stream operators of the SCSQ engine.

Each operator runs as one simulation process pulling from bounded input
stores and pushing to an output store; see :mod:`repro.engine.operators.base`.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "Operator",
    "GenerateArrays",
    "Constant",
    "Iota",
    "ExternalReceiver",
    "Count",
    "Sum",
    "Avg",
    "MaxAgg",
    "MinAgg",
    "Merge",
    "First",
    "Above",
    "Below",
    "Sample",
    "Relay",
    "EvenElements",
    "OddElements",
    "Fft",
    "RadixCombine",
    "fft_cost_seconds",
    "Grep",
    "WindowAggregate",
    "GroupWindowAggregate",
    "operator_class",
]

__getattr__ = lazy_exports(__name__, {
    "repro.engine.operators.aggregates": ("Avg", "Count", "MaxAgg", "MinAgg", "Sum"),
    "repro.engine.operators.base": ("Operator",),
    "repro.engine.operators.fft": ("Fft", "RadixCombine", "fft_cost_seconds"),
    "repro.engine.operators.filters": ("Above", "Below", "Sample"),
    "repro.engine.operators.groupwin": ("GroupWindowAggregate",),
    "repro.engine.operators.grep": ("Grep",),
    "repro.engine.operators.merge": ("First", "Merge", "Relay"),
    "repro.engine.operators.registry": ("operator_class",),
    "repro.engine.operators.sources": ("Constant", "ExternalReceiver", "GenerateArrays", "Iota"),
    "repro.engine.operators.transforms": ("EvenElements", "OddElements"),
    "repro.engine.operators.window": ("WindowAggregate",),
})
