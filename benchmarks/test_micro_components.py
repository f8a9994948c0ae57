"""Micro-benchmarks of the library's hot components.

Not paper figures — these track the performance of the substrate itself:
the DES kernel's event throughput (on *both* scheduler backends, side by
side), marshaling, SCSQL parsing/compilation, and a small end-to-end
query.  Useful for catching performance regressions when extending the
engine, and for seeing exactly what the calendar queue buys on each
workload shape.
"""


import pytest

from repro.engine.marshal import StreamDemarshaller, StreamMarshaller
from repro.engine.objects import SyntheticArray
from repro.scsql.compiler import QueryCompiler
from repro.scsql.parser import parse_query
from repro.scsql.session import SCSQSession
from repro.sim import SCHEDULERS, Resource, Simulator, Store, Timeout

#: Both kernel backends, benchmarked side by side on every kernel-shaped
#: workload below (``pytest-benchmark`` groups the variants by test name).
BACKENDS = sorted(SCHEDULERS)

QUERY3 = """
select extract(c) from
bag of sp a, bag of sp b, sp c, integer n
where c=sp(streamof(sum(merge(b))), 'bg')
and b=spv(
  (select streamof(count(extract(p)))
   from sp p
   where p in a),
  'bg', inPset(1))
and a=spv(
  (select gen_array(3000000,100)
   from integer i where i in iota(1,n)),
  'be', 1)
and n=4;
"""


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_event_throughput(benchmark, backend):
    """Producer/consumer ping-pong: ~4 events per item."""

    def run():
        sim = Simulator(scheduler=backend)
        store = Store(sim, capacity=8)

        def producer():
            for i in range(5000):
                yield store.put(i)

        def consumer():
            for _ in range(5000):
                yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        return sim

    benchmark(run)


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_resource_contention(benchmark, backend):
    """Many processes contending for one channel-like resource.

    This is the shape of the torus fast path: every hop is a request /
    hold / release cycle on a capacity-1 :class:`Resource`, with a waiter
    queue that is mostly non-empty.  Tracks the resource fast paths
    (inline succeed, list waiter queues) the kernel optimizations target.
    """

    def run():
        sim = Simulator(scheduler=backend)
        channel = Resource(sim, capacity=1)

        def hopper():
            for _ in range(500):
                request = channel.request()
                yield request
                yield sim.timeout(1e-6)
                channel.release(request)

        for _ in range(16):
            sim.process(hopper())
        sim.run()
        return sim

    benchmark(run)


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_synchronized_bursts(benchmark, backend):
    """Thousands of timers firing at shared instants: the calendar's case.

    Every period boundary is one bucket of ``streams`` simultaneous
    timeouts — the dominant access pattern of large stream deployments
    (and of the BENCH ``scale`` figure, which runs this shape at 4096
    streams).  The heap pays ``O(log n)`` per event here; the calendar
    queue pays ``O(1)`` and touches its time heap once per instant.
    """

    streams, ticks = 512, 20

    class Tick:
        __slots__ = ("sim", "remaining", "_cb")

        def __init__(self, sim, ticks):
            self.sim = sim
            self.remaining = ticks
            self._cb = self._fire
            Timeout(sim, 1.0).callbacks.append(self._cb)

        def _fire(self, event):
            remaining = self.remaining - 1
            if remaining:
                self.remaining = remaining
                Timeout(self.sim, 1.0).callbacks.append(self._cb)

    def run():
        sim = Simulator(scheduler=backend)
        for _ in range(streams):
            Tick(sim, ticks)
        sim.run()
        assert sim.events_dispatched == streams * ticks
        return sim

    benchmark(run)


def test_marshal_roundtrip_throughput(benchmark):
    """Fragmenting 3 MB arrays into 64 KB buffers and reassembling."""

    arrays = [SyntheticArray(nbytes=3_000_000, sequence=i) for i in range(10)]

    def run():
        marshaller = StreamMarshaller("s", "src", 65536)
        demarshaller = StreamDemarshaller()
        out = []
        for array in arrays:
            for buffer in marshaller.add(array):
                out.extend(demarshaller.accept(buffer))
        tail = marshaller.flush()
        if tail:
            out.extend(demarshaller.accept(tail))
        assert len(out) == len(arrays)

    benchmark(run)


def test_scsql_parse_speed(benchmark):
    """Parsing the paper's Query 3 text."""
    result = benchmark(lambda: parse_query(QUERY3))
    assert len(result.conditions) == 4


def test_scsql_compile_speed(benchmark):
    """Parse + compile Query 3 to a 9-process graph."""

    def run():
        compiler = QueryCompiler()
        return compiler.compile_select(parse_query(QUERY3))

    graph = benchmark(run)
    assert len(graph.sps) == 9


def test_end_to_end_small_query(benchmark):
    """Full pipeline: parse, compile, deploy, simulate, collect."""

    def run():
        session = SCSQSession()
        report = session.execute(
            "select extract(b) from sp a, sp b "
            "where b=sp(count(extract(a)), 'bg', 0) "
            "and a=sp(gen_array(100000,10), 'bg', 1);"
        )
        assert report.scalar_result == 10

    benchmark(run)
