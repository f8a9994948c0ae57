"""A feed has one reader: the flow recorder's completion consumer.

``FlowRecorder`` hands every sealed record to the one consumer bound to it,
the live sampler's window accumulator, at completion time.  A second bind
raises, so two samplers can never split or double-count one recorder's
flows.
"""

import pytest

from repro.obs.flow import FlowRecorder
from repro.obs.instrument import Instrumentation
from repro.obs.live import LiveSampler


class _Buffer:
    """The minimal WireBuffer surface the flow recorder reads."""

    def __init__(self, buffer_id, stream_id="s0/x", nbytes=1000):
        self.buffer_id = buffer_id
        self.stream_id = stream_id
        self.source = "a@1"
        self.nbytes = nbytes
        self.eos = False


def test_the_consumer_sees_every_completion():
    recorder = FlowRecorder()
    seen = []
    recorder.bind_consumer(seen.append)
    for index in range(3):
        buffer = _Buffer(index)
        recorder.begin(buffer, 0.0)
        recorder.complete(buffer, 1.0 + index)
    assert [record.buffer_id for record in seen] == [0, 1, 2]
    assert seen == recorder.completed


def test_a_second_consumer_raises():
    recorder = FlowRecorder()
    recorder.bind_consumer(lambda record: None)
    with pytest.raises(RuntimeError, match="exactly one consumer"):
        recorder.bind_consumer(lambda record: None)


def test_a_second_sampler_on_one_recorder_raises():
    hub = Instrumentation(live=LiveSampler())
    with pytest.raises(RuntimeError, match="exactly one consumer"):
        Instrumentation(flows=hub.flows, live=LiveSampler())
