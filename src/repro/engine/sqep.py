"""Stream Query Execution Plans (SQEPs).

An RP "is responsible for compiling its subquery into a local Stream Query
Execution Plan, SQEP, and interpreting it" (paper section 2.3).  Here a
SQEP is a tree of :class:`OpSpec` nodes.  Interior nodes name registered
physical operators; ``input`` leaves are subscriptions to the output
streams of other stream processes (the compiled form of ``extract()``).

OpSpec trees are plain data: the SCSQL compiler builds them, coordinators
ship them to (simulated) nodes, and :class:`~repro.engine.rp.RunningProcess`
instantiates them against live stores and drivers.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Tuple

from repro.util.errors import QueryExecutionError
from repro.util.record import Frozen, setters

#: Reserved plan-node name for cross-process stream subscriptions.
INPUT = "input"


class OpSpec(Frozen):
    """One node of a stream query execution plan.

    Attributes:
        name: Built-in operator name, or :data:`INPUT` for a subscription.
        args: Positional constructor arguments of the operator.
        children: Upstream plan nodes feeding this operator, in input order.
        producer: For :data:`INPUT` leaves: the id of the stream process
            whose output stream is subscribed to.
    """

    name: str
    args: Tuple[Any, ...]
    children: Tuple["OpSpec", ...]
    producer: Optional[str]
    __slots__ = ("name", "args", "children", "producer")

    def __init__(self, name: str, args: Tuple[Any, ...] = (), children: Tuple["OpSpec", ...] = (),
                 producer: Optional[str] = None) -> None:
        _op_spec_name(self, name)
        _op_spec_args(self, args)
        _op_spec_children(self, children)
        _op_spec_producer(self, producer)
        if self.name == INPUT:
            if self.producer is None:
                raise QueryExecutionError("input plan nodes need a producer id")
            if self.children:
                raise QueryExecutionError("input plan nodes cannot have children")
        elif self.producer is not None:
            raise QueryExecutionError(
                f"only input plan nodes carry a producer; {self.name!r} does not"
            )

    def walk(self) -> Iterator["OpSpec"]:
        """Depth-first iteration over the plan tree (children first)."""
        for child in self.children:
            yield from child.walk()
        yield self

    def input_leaves(self) -> Iterator["OpSpec"]:
        """All subscription leaves of the plan, in plan order."""
        for node in self.walk():
            if node.name == INPUT:
                yield node

    def describe(self, indent: int = 0) -> str:
        """Readable multi-line rendering of the plan tree."""
        pad = "  " * indent
        if self.name == INPUT:
            line = f"{pad}input <- {self.producer}"
        else:
            rendered_args = ", ".join(repr(a) for a in self.args)
            line = f"{pad}{self.name}({rendered_args})"
        lines = [line]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)


_op_spec_name, _op_spec_args, _op_spec_children, _op_spec_producer = setters(OpSpec)


def plan_input(producer: str) -> OpSpec:
    """Build a subscription leaf to the stream process ``producer``."""
    return OpSpec(name=INPUT, producer=producer)


def plan_op(name: str, *args: Any, children: Tuple[OpSpec, ...] = ()) -> OpSpec:
    """Build an operator plan node (convenience constructor)."""
    return OpSpec(name=name, args=tuple(args), children=tuple(children))
