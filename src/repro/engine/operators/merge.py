"""Stream combination operators: merge and relays.

"The function merge(p) generalizes extract() by requesting elements from
each stream process in p.  merge() terminates when (if ever) the last
stream process in p terminates" (paper section 2.4).  The physical merge
forwards objects from its inputs in arrival order and emits end-of-stream
only after every input has ended.

``Relay`` is the identity operator: it materializes ``extract(p)`` when the
extracted stream is itself the RP's result (e.g. ``c=sp(extract(b))`` in
Queries 1-6) and ``streamof(e)`` whose stream semantics are handled at plan
level.
"""

from __future__ import annotations

from repro.engine.objects import END_OF_STREAM
from repro.engine.operators.base import Operator
from repro.sim import Interrupt


class Merge(Operator):
    """Fan-in of any number of input streams, arrival order preserved."""

    name = "merge"
    arity = (1, None)

    def run(self):
        sim = self.ctx.sim
        done = sim.event()
        state = {"live": len(self.inputs)}
        forwarders = [
            self.ctx.spawn(
                self._forward(store, state, done),
                name=f"merge-in[{i}]",  # lint: disable=DET008 (once per input)
            )
            for i, store in enumerate(self.inputs)
        ]
        yield done
        for forwarder in forwarders:
            yield forwarder  # join: each forwarder has ended
        yield from self.finish()

    def _forward(self, store, state, done):
        try:
            while True:
                got = store.get()
                obj = got._value if got.callbacks is None else (yield got)
                if obj is END_OF_STREAM:
                    break
                self.objects_in += 1
                yield from self.ctx.charge_cpu(self.ctx.costs.per_object_overhead)
                yield from self.emit(obj)
        except Interrupt:
            raise
        except Exception as exc:
            # run() raises it, so the RP reports it.  (A failure callback on
            # this process would make its join a two-callback, busy dispatch.)
            if not done.triggered:
                done.fail(exc)
            return
        state["live"] -= 1
        if state["live"] == 0:
            done.succeed()


class Relay(Operator):
    """Identity: forward the single input stream unchanged."""

    name = "relay"
    arity = (1, 1)

    def run(self):
        while True:
            got = self.inputs[0].get()
            obj = got._value if got.callbacks is None else (yield got)
            if obj is END_OF_STREAM:
                break
            self.objects_in += 1
            yield from self.ctx.charge_cpu(self.ctx.costs.per_object_overhead)
            yield from self.emit(obj)
        yield from self.finish()


class First(Operator):
    """``first(s, n)``: the first n objects of a stream — a *stop condition*.

    "The execution of CQs may be stopped ... by a stop condition in the
    query that makes the stream finite" (paper section 2.2).  After the
    n-th object this operator ends its output stream and stops consuming;
    the running process then cancels its upstream subscriptions with
    control messages, which cascades to the producers (they are terminated
    once no subscriber remains), so an unbounded source query terminates
    by itself.
    """

    name = "first"
    arity = (1, 1)

    def __init__(self, ctx, inputs, output, limit: int):
        super().__init__(ctx, inputs, output)
        from repro.util.errors import QueryExecutionError

        if limit < 0:
            raise QueryExecutionError(f"first() needs a limit >= 0, got {limit}")
        self.limit = int(limit)

    def run(self):
        while self.objects_in < self.limit:
            got = self.inputs[0].get()
            obj = got._value if got.callbacks is None else (yield got)
            if obj is END_OF_STREAM:
                yield from self.finish()
                return
            self.objects_in += 1
            yield from self.ctx.charge_cpu(self.ctx.costs.per_object_overhead)
            yield from self.emit(obj)
        yield from self.finish()
        # Done without draining the input: the RP supervisor notices the
        # still-live receiver and cancels upstream.
