"""Unit tests for the sender/receiver drivers and the inbox."""

import pytest

from repro.engine.context import ExecutionContext
from repro.engine.drivers import ReceiverDriver, SenderDriver
from repro.engine.inbox import Inbox
from repro.engine.objects import SyntheticArray
from repro.engine.settings import ExecutionSettings
from repro.net.channels import MpiChannel
from repro.sim import Store
from repro.util.errors import SimulationError
from tests.conftest import drain_store, feed_store


def pipe(env, objects, buffer_bytes=1000, double_buffering=True):
    """Send objects bg:1 -> bg:0 through real drivers over the torus."""
    settings = ExecutionSettings(
        mpi_buffer_bytes=buffer_bytes, double_buffering=double_buffering
    )
    src_ctx = ExecutionContext(env, env.node("bg", 1), settings)
    dst_ctx = ExecutionContext(env, env.node("bg", 0), settings)
    inbox = Inbox(env.sim, slots=settings.driver_slots, name="test")
    channel = MpiChannel(env.sim, env.node("bg", 1), env.node("bg", 0), inbox, env.torus)
    feed = Store(env.sim, capacity=4)
    output = Store(env.sim, capacity=4)
    sender = SenderDriver(src_ctx, feed, channel, "s")
    receiver = ReceiverDriver(dst_ctx, inbox, output, "s")
    feed_store(env.sim, feed, objects)
    env.sim.process(sender.run(), name="sender")
    env.sim.process(receiver.run(), name="receiver")
    collector = drain_store(env.sim, output)
    env.sim.run()
    assert collector.ok, collector.value
    return collector.value, sender, receiver, env.sim.now


class TestDriverPipe:
    def test_objects_survive_the_pipe(self, env):
        objects = [SyntheticArray(nbytes=2500, sequence=i) for i in range(5)]
        received, sender, receiver, _ = pipe(env, objects)
        assert received == objects

    def test_mixed_small_objects(self, env):
        objects = [1, "two", 3.0, SyntheticArray(nbytes=5000)]
        received, *_ = pipe(env, objects)
        assert received == objects

    def test_empty_stream_only_eos(self, env):
        received, sender, receiver, _ = pipe(env, [])
        assert received == []
        assert sender.buffers_sent == 0

    def test_statistics_track_bytes(self, env):
        objects = [SyntheticArray(nbytes=1000) for _ in range(4)]
        received, sender, receiver, _ = pipe(env, objects)
        assert sender.bytes_sent == 4000
        assert receiver.bytes_received == 4000
        assert sender.buffers_sent == receiver.buffers_received

    def test_double_buffering_is_faster_for_large_buffers(self):
        from repro.hardware.environment import Environment, EnvironmentConfig

        objects = [SyntheticArray(nbytes=400_000) for _ in range(10)]
        _, _, _, single_time = pipe(
            Environment(EnvironmentConfig()), objects, 100_000, double_buffering=False
        )
        _, _, _, double_time = pipe(
            Environment(EnvironmentConfig()), objects, 100_000, double_buffering=True
        )
        assert double_time < single_time

    def test_tcp_channel_overrides_buffer_size(self, env):
        settings = ExecutionSettings(mpi_buffer_bytes=123)
        ctx = ExecutionContext(env, env.node("be", 0), settings)
        inbox = Inbox(env.sim, slots=2)
        channel = env.open_channel(env.node("be", 0), env.node("bg", 0), inbox, "s")
        sender = SenderDriver(ctx, Store(env.sim), channel, "s")
        assert sender.buffer_bytes == env.params.tcp.segment_bytes


def _blocked(inbox):
    """Network deposits blocked waiting for a free slot: the getters of the
    inbox's token pool."""
    return inbox.kernel_stores()[0].pending_gets


class TestInbox:
    def test_slot_validation(self, sim):
        with pytest.raises(SimulationError):
            Inbox(sim, slots=0)

    def test_put_blocks_until_release(self, sim):
        from repro.net.message import WireBuffer

        inbox = Inbox(sim, slots=1)
        deposited = []

        def network():
            for i in range(2):
                yield inbox.put(WireBuffer.data("s", "n", 10, []))
                deposited.append((i, sim.now))

        def driver():
            yield inbox.get()
            yield sim.timeout(5.0)  # de-marshal the first buffer
            yield inbox.release()
            yield inbox.get()
            yield inbox.release()

        sim.process(network())
        sim.process(driver())
        sim.run()
        # The second deposit had to wait for the release at t=5.
        assert deposited[0][1] == 0.0
        assert deposited[1][1] == pytest.approx(5.0)

    def test_two_slots_allow_overlap(self, sim):
        from repro.net.message import WireBuffer

        inbox = Inbox(sim, slots=2)
        deposited = []

        def network():
            for i in range(2):
                yield inbox.put(WireBuffer.data("s", "n", 10, []))
                deposited.append(sim.now)

        sim.process(network())
        sim.run()
        assert deposited == [0.0, 0.0]
        assert inbox.depth == 2

    def test_a_free_slot_is_taken_in_the_call_itself(self, sim):
        from repro.net.message import WireBuffer

        inbox = Inbox(sim, slots=2)
        sim.run()  # the pool's own tokens
        started = sim.events_dispatched
        done = inbox.put(WireBuffer.data("s", "n", 10, []))
        assert (inbox.depth, _blocked(inbox)) == (1, 0)  # before any event ran
        assert not hasattr(inbox, "_put") and not hasattr(inbox, "_put_name")
        sim.run()
        # Outside a dispatch nothing is synchronous: the (unused) slot event
        # and the store's put event — but no Initialize, no completion.
        assert done.processed and sim.events_dispatched - started == 2

    def test_the_depositor_completes_before_the_woken_receiver_runs(self, sim):
        from repro.net.message import WireBuffer

        order = []

        def network(inbox, count):
            for index in range(count):
                yield sim.timeout(1.0)
                deposited = inbox.put(WireBuffer.data("s", "n", 10, []))
                if deposited.callbacks is not None:
                    yield deposited
                order.append(("deposited", index, sim.now))

        def driver(inbox, count, hold):
            for index in range(count):
                yield inbox.get()
                order.append(("picked-up", index, sim.now))
                yield sim.timeout(hold)
                yield inbox.release()

        # Free slot (receiver parked on get) and blocked deposit (one slot,
        # slow receiver) alike: deposit first, pick-up second, same instant.
        for slots, hold in ((2, 0.0), (1, 5.0)):
            order.clear()
            inbox = Inbox(sim, slots=slots)
            sim.process(network(inbox, 3))
            sim.process(driver(inbox, 3, hold))
            sim.run()
            for index in range(3):
                deposited = order.index(next(e for e in order if e[:2] == ("deposited", index)))
                picked_up = order.index(next(e for e in order if e[:2] == ("picked-up", index)))
                assert deposited < picked_up, (slots, order)
                assert order[deposited][2] == order[picked_up][2]

    def test_close_wakes_blocked_deposits_and_drops_later_ones(self, sim):
        from repro.net.message import WireBuffer

        inbox = Inbox(sim, slots=1)
        woken = []

        def network(index):
            yield inbox.put(WireBuffer.data("s", "n", 10, []))
            woken.append((index, sim.now))

        for index in range(3):
            sim.process(network(index))
        sim.run()
        assert woken == [(0, 0.0)] and (inbox.depth, _blocked(inbox)) == (1, 2)
        assert sum(store.pending_gets for store in inbox.kernel_stores()) == 2
        inbox.close()
        sim.run()
        assert sorted(woken) == [(0, 0.0), (1, 0.0), (2, 0.0)]
        assert (inbox.depth, _blocked(inbox)) == (1, 0)  # woken, not deposited
        late = inbox.put(WireBuffer.data("s", "n", 10, []))
        assert late.processed and inbox.depth == 1  # dropped, nothing to wait for

    def test_a_blocked_deposit_is_a_live_waiter_to_the_audit(self, sim):
        from repro.analysis.sanitize import _live_waiters
        from repro.net.message import WireBuffer

        inbox = Inbox(sim, slots=1)

        def forward():  # as the torus does: a detached generator parked on the deposit
            deposited = inbox.put(WireBuffer.data("s", "n", 10, []))
            if deposited.callbacks is not None:
                yield deposited

        sim.detach(forward())
        sim.detach(forward())
        sim.run()
        tokens, items = inbox.kernel_stores()
        assert (tokens.pending_gets, _live_waiters(tokens), _live_waiters(items)) == (1, 1, 0)
