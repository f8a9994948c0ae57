"""The SCSQ stream engine: objects, marshaling, drivers, operators, RPs.

This package implements the running process of the paper's Figure 3: a
SQEP interpreted by operator processes, fed by receiver drivers and drained
by sender drivers, with single- or double-buffered stream carriers.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "ExecutionContext",
    "RPStatistics",
    "OperatorStats",
    "StreamStats",
    "snapshot",
    "SenderDriver",
    "ReceiverDriver",
    "Inbox",
    "StreamMarshaller",
    "StreamDemarshaller",
    "END_OF_STREAM",
    "SyntheticArray",
    "TaggedObject",
    "size_of",
    "RunningProcess",
    "InputPort",
    "ExecutionSettings",
    "OpSpec",
    "INPUT",
    "plan_input",
    "plan_op",
]

__getattr__ = lazy_exports(__name__, {
    "repro.engine.context": ("ExecutionContext",),
    "repro.engine.drivers": ("ReceiverDriver", "SenderDriver"),
    "repro.engine.inbox": ("Inbox",),
    "repro.engine.monitor": ("OperatorStats", "RPStatistics", "StreamStats", "snapshot"),
    "repro.engine.marshal": ("StreamDemarshaller", "StreamMarshaller"),
    "repro.engine.objects": ("END_OF_STREAM", "SyntheticArray", "TaggedObject", "size_of"),
    "repro.engine.rp": ("InputPort", "RunningProcess"),
    "repro.engine.settings": ("ExecutionSettings",),
    "repro.engine.sqep": ("INPUT", "OpSpec", "plan_input", "plan_op"),
})
