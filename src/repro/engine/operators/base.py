"""Operator base class and shared plumbing.

A physical operator is one simulation process: it pulls objects from its
input stores, charges modelled CPU time, and pushes results to its output
store.  Streams between operators inside an RP are bounded
:class:`~repro.sim.resources.Store` objects, so a slow consumer
back-pressures its producers — the in-process counterpart of the flow
regulation the paper's RPs do with control messages.

Every operator forwards :data:`~repro.engine.objects.END_OF_STREAM` exactly
once when its work is done, making finite streams terminate cleanly
("the execution of CQs may be stopped ... by a stop condition in the query
that makes the stream finite", section 2.2).

A loop pays one frame per modelled operation on an object.  A store hands
back an event already processed when it could serve at once, and yielding
it would only send its value straight back, so a loop waits on a pending
one only: ``got = self.inputs[0].get()``, then ``obj = got._value if
got.callbacks is None else (yield got)``.  :meth:`emit` and :meth:`finish`
return the events left to wait on, for ``yield from``.  An operator starts
a sub-process with ``self.ctx.spawn``, so that its RP owns it.
"""

from __future__ import annotations

from typing import List

from repro.engine.context import ExecutionContext
from repro.engine.objects import END_OF_STREAM
from repro.sim import Store
from repro.util.errors import QueryExecutionError


class Operator:
    """One physical operator of a stream query execution plan."""

    #: Registry name; subclasses set this and register in the registry module.
    name = "operator"

    def __init__(self, ctx: ExecutionContext, inputs: List[Store], output: Store):
        self.ctx = ctx
        self.inputs = inputs
        self.output = output
        self.objects_in = 0
        self.objects_out = 0
        self._validate_arity()

    #: (min, max) number of input streams; max None = unbounded.
    arity = (0, None)

    #: True for a stop condition: an operator that can end its output
    #: before its inputs end.  Its RP then cancels the subscriptions still
    #: live when the result stream completes.
    stops_early = False

    def _validate_arity(self) -> None:
        low, high = self.arity
        n = len(self.inputs)
        if n < low or (high is not None and n > high):
            raise QueryExecutionError(
                f"operator {self.name!r} takes between {low} and "
                f"{high if high is not None else 'any'} inputs, got {n}"
            )

    # ------------------------------------------------------------------
    def run(self):
        """The operator's simulation process (generator).  Subclasses override."""
        raise NotImplementedError

    def emit(self, obj):
        """Push one result object downstream; ``yield from`` the result."""
        self.objects_out += 1
        queued = self.output.put(obj)
        return () if queued.callbacks is None else (queued,)

    def finish(self):
        """Signal end-of-stream downstream; ``yield from`` the result."""
        queued = self.output.put(END_OF_STREAM)
        return () if queued.callbacks is None else (queued,)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} in={len(self.inputs)}>"
