"""Differential test of the kernel's synchronous grants.

At a quiescent instant ``Resource.request``/``Store.put``/``Store.get``
hand their event back already processed instead of scheduling it
(``Simulator._inst``; docs/performance.md).  The claim is that this is
*order-exact*: every process observes exactly what it would have observed
had the grant gone through the queue.  The reference kernel here is the
same code under a scheduler that never reports a quiescent instant, so
every grant is queued, as before the rule existed.

Random programs over capacity-1 and capacity-2 resources, bounded and
unbounded stores, timeouts, ``any_of``, joins, spawns and interrupts run on
both; their ``(time, process, action)`` traces, final values and clocks
must be identical, float for float.  Generated statements wait on an event
in the statement that creates it; the one pattern outside that idiom has
its own test at the bottom (and a lint rule, ``DET009``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CalendarQueue, Interrupt, Resource, ShuffleScheduler, Simulator, Store
from repro.sim.scheduler import _BUSY


class NeverQuiescent(CalendarQueue):
    """The reference: a calendar queue that always claims pending work."""

    __slots__ = ()
    batched = False

    def _pending_view(self, when):
        return _BUSY


class World:
    """One simulator plus the shared objects and the trace of a program."""

    def __init__(self, scheduler=None, bounded=1):
        self.sim = Simulator(scheduler=scheduler)
        self.resources = [Resource(self.sim, 1, "r1"), Resource(self.sim, 2, "r2")]
        self.stores = [Store(self.sim, bounded, "bounded"), Store(self.sim, name="free")]
        self.trace = []
        self.processes = {}

    def log(self, name, *action):
        self.trace.append((self.sim.now.hex(), name) + action)

    def start(self, name, program):
        process = self.processes[name] = self.sim.process(self.interpret(name, program), name)
        return process

    def interpret(self, name, program):
        """Run ``program`` statement by statement; an interrupt skips one."""
        sim = self.sim
        children = []
        self.log(name, "start")
        for step, statement in enumerate(program):
            op, args = statement[0], statement[1:]
            try:
                if op == "timeout":
                    yield sim.timeout(args[0])
                elif op == "hold":
                    with self.resources[args[0]].request() as req:
                        yield req
                        self.log(name, "acquired", args[0])
                        yield sim.timeout(args[1])
                elif op == "put":
                    yield self.stores[args[0]].put((name, step))
                elif op == "get":
                    self.log(name, "got", (yield self.stores[args[0]].get()))
                elif op == "any_of":
                    item = self.stores[args[0]].get()
                    fired = yield sim.any_of([item, sim.timeout(args[1])])
                    self.log(name, "any_of", item in fired)
                elif op == "spawn":
                    child = f"{name}.{step}"
                    children.append(self.start(child, args[0]))
                elif op == "join" and children:
                    self.log(name, "joined", (yield children.pop()))
                elif op == "interrupt":
                    victims = sorted(self.processes)
                    victim = self.processes[victims[args[0] % len(victims)]]
                    if victim.is_alive and victim is not sim.active_process:
                        victim.interrupt(name)
            except Interrupt as interrupt:
                self.log(name, "interrupted", op, interrupt.cause)
            self.log(name, "done", op)
        return name, len(program)

    def outcome(self):
        finals = {
            name: process.value if process.triggered else "blocked"
            for name, process in self.processes.items()
        }
        held = [resource.count for resource in self.resources]
        return self.trace, finals, held, self.sim.now.hex()


_delays = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 0.1 + 0.2])
_leaf = st.one_of(
    st.tuples(st.just("timeout"), _delays),
    st.tuples(st.just("hold"), st.integers(0, 1), _delays),
    st.tuples(st.just("put"), st.integers(0, 1)),
    st.tuples(st.just("get"), st.integers(0, 1)),
    st.tuples(st.just("any_of"), st.integers(0, 1), _delays),
    st.tuples(st.just("join")),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
)
_child = st.lists(_leaf, max_size=4)
_statement = st.one_of(_leaf, _leaf, st.tuples(st.just("spawn"), _child))
_programs = st.lists(st.lists(_statement, max_size=8), min_size=1, max_size=5)


def run_program(programs, scheduler=None, bounded=1, slices=None):
    world = World(scheduler, bounded)
    for index, program in enumerate(programs):
        world.start(f"p{index}", program)
    if slices is None:
        world.sim.run()
    else:
        horizon = 0.0
        while world.sim.peek() != float("inf"):
            horizon += slices
            world.sim.run(until=horizon)
    return world


class TestAgainstTheQueuedReference:
    @given(programs=_programs, bounded=st.integers(1, 2))
    @settings(max_examples=300, deadline=None)
    def test_random_programs_observe_the_same_run(self, programs, bounded):
        eager = run_program(programs, None, bounded)
        queued = run_program(programs, NeverQuiescent(), bounded)
        assert eager.outcome() == queued.outcome()
        assert eager.sim.events_dispatched <= queued.sim.events_dispatched

    @given(programs=_programs, bounded=st.integers(1, 2))
    @settings(max_examples=100, deadline=None)
    def test_heap_and_calendar_take_the_same_shortcuts(self, programs, bounded):
        calendar = run_program(programs, "calendar", bounded)
        heap = run_program(programs, "heap", bounded)
        assert calendar.outcome() == heap.outcome()
        assert calendar.sim.events_dispatched == heap.sim.events_dispatched

    @given(programs=_programs, slices=st.sampled_from([0.25, 0.5, 1.0, 3.0]))
    @settings(max_examples=100, deadline=None)
    def test_run_until_slices_equal_one_run(self, programs, slices):
        whole = run_program(programs)
        sliced = run_program(programs, slices=slices)
        assert whole.outcome()[:3] == sliced.outcome()[:3]
        assert whole.sim.events_dispatched == sliced.sim.events_dispatched


#: A race-free pipeline: no instant ever holds two events of one rank, so
#: even the shuffling backend has a single legal order.
PIPELINE = [[
    ("spawn", [("timeout", 0.25), ("get", 1), ("hold", 1, 2.0), ("get", 1), ("get", 1),
               ("hold", 0, 0.5)]),
    ("put", 1), ("hold", 0, 1.0), ("put", 1), ("hold", 1, 0.5), ("put", 1),
]]


class TestNamedCases:
    def test_the_shortcut_fires_and_every_backend_counts_alike(self):
        queued = run_program(PIPELINE, NeverQuiescent())
        runs = [
            run_program(PIPELINE, scheduler)
            for scheduler in ("calendar", "heap", "shuffle", ShuffleScheduler(7))
        ]
        for run in runs:
            assert run.outcome() == queued.outcome()
            assert run.sim.events_dispatched == runs[0].sim.events_dispatched
        assert runs[0].sim.events_dispatched < queued.sim.events_dispatched

    def test_an_event_with_two_callbacks_grants_nothing_early(self):
        def body(world, name, gate):
            yield gate
            with world.resources[1].request() as req:
                assert req.callbacks is not None  # queued, although a slot is free
                yield req
                world.log(name, "acquired")

        traces = []
        for scheduler in (None, NeverQuiescent()):
            world = World(scheduler)
            gate = world.sim.timeout(1.0)
            for name in ("first", "second"):
                world.sim.process(body(world, name, gate), name)
            world.sim.run()
            traces.append(world.trace)
        assert traces[0] == traces[1]
        assert [entry[1] for entry in traces[0]] == ["first", "second"]

    def test_interrupt_while_a_synchronous_grant_is_held(self):
        programs = [
            [("hold", 0, 5.0), ("hold", 0, 1.0)],
            [("timeout", 1.0), ("hold", 0, 1.0)],
            [("timeout", 2.0), ("interrupt", 0)],
        ]
        eager = run_program(programs)
        assert eager.outcome() == run_program(programs, NeverQuiescent()).outcome()
        trace, finals, held, now = eager.outcome()
        assert ((2.0).hex(), "p0", "interrupted", "hold", "p2") in trace
        assert ((2.0).hex(), "p1", "acquired", 0) in trace  # the freed slot moved on
        assert held == [0, 0] and "blocked" not in finals.values()

    def test_a_grant_outside_a_dispatch_is_queued(self):
        sim = Simulator()
        resource, store = Resource(sim), Store(sim)
        assert resource.request().callbacks is not None
        assert store.put(1).callbacks is not None
        assert store.get().callbacks is not None
        sim.run()
        assert store.put(2).callbacks is not None  # nor after a run returned


class TestTheWindowDet009Guards:
    """Creating an event, then spawning or interrupting, then waiting on it.

    A queued grant runs after the urgent event the spawn (or interrupt)
    scheduled; a synchronous grant was already delivered.  Simulated time
    and every value agree — the order of two same-instant log lines does
    not, which is why ``DET009`` keeps the pattern out of the tree.
    """

    @staticmethod
    def _run(scheduler):
        world = World(scheduler)

        def child():
            world.log("child", "start")
            yield world.sim.timeout(0.0)

        def parent():
            yield world.sim.timeout(1.0)
            req = world.resources[0].request()
            world.sim.process(child(), "child")
            yield req
            world.log("parent", "acquired")
            world.resources[0].release(req)

        world.sim.process(parent(), "parent")
        world.sim.run()
        return world

    def test_the_documented_difference(self):
        eager, queued = self._run(None), self._run(NeverQuiescent())
        assert [entry[1] for entry in eager.trace] == ["parent", "child"]
        assert [entry[1] for entry in queued.trace] == ["child", "parent"]
        assert sorted(eager.trace) == sorted(queued.trace)
        assert eager.sim.now == queued.sim.now
