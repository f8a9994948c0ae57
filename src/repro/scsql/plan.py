"""Deployment plans: the compile-once form of a continuous query.

A :class:`DeploymentPlan` is the environment-independent intermediate
representation sitting between the SCSQL front end and the coordinator
layer.  It is produced *once* per query by :func:`compile_plan` — parse +
:class:`~repro.scsql.compiler.QueryCompiler` — and carries everything a
deployment needs: the :class:`~repro.coordinator.graph.QueryGraph` with its
symbolic allocation constraints, the execution settings, and the source
text for provenance.

Because compilation no longer consults a live
:class:`~repro.hardware.environment.Environment` (cluster names validate
against a topology vocabulary, allocation queries reduce to picklable
:class:`~repro.coordinator.allocation.AllocationSpec` objects), one plan
can be pickled to sweep workers and deployed any number of times onto any
compatible environment::

    plan = compile_plan("select count(extract(r)) from ...")
    deployer = Deployer(env)
    report = deployer.run(plan)            # place + deploy + run
    report = deployer.run(plan)            # deploy the same plan again

The full lifecycle is parse -> compile -> place -> deploy -> run ->
teardown; the place/deploy/run/teardown half lives in
:mod:`repro.coordinator.deployer`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.coordinator.graph import QueryGraph
from repro.engine.settings import ExecutionSettings
from repro.scsql.ast import SelectQuery
from repro.scsql.compiler import FunctionDef, QueryCompiler
from repro.scsql.parser import parse
from repro.util.errors import QuerySemanticError
from repro.util.record import Frozen


class DeploymentPlan(Frozen):
    """A compiled continuous query, ready to deploy anywhere.

    Attributes:
        query: The SCSQL source text the plan was compiled from.
        graph: The compiled process graph.  Deployments never mutate it:
            they work on :meth:`instantiate` copies, so one plan may back
            many (even concurrent) deployments.
        settings: Execution settings the query was compiled for; a
            deployment may override them at deploy time.
    """

    query: str
    graph: QueryGraph
    settings: ExecutionSettings
    __slots__ = ("query", "graph", "settings")

    def __init__(self, query: str, graph: QueryGraph,
                 settings: Optional[ExecutionSettings] = None) -> None:
        self._set_fields(query, graph, ExecutionSettings() if settings is None else settings)

    def instantiate(self) -> QueryGraph:
        """A fresh deployable copy of the plan's process graph."""
        return self.graph.instantiate()

    def describe(self) -> str:
        """Human-readable summary of the plan's process graph."""
        return self.graph.describe()


def compile_plan(
    text: str,
    functions: Optional[Dict[str, FunctionDef]] = None,
    settings: Optional[ExecutionSettings] = None,
) -> DeploymentPlan:
    """Compile one SCSQL select query into a :class:`DeploymentPlan`.

    Args:
        text: The select query source.
        functions: User-defined query functions visible to the query.
        settings: Execution settings to bake into the plan (defaults used
            otherwise; deployments may still override).

    Raises:
        QuerySemanticError: If ``text`` is not a select query or fails
            semantic checks.
    """
    statement = parse(text)
    if not isinstance(statement, SelectQuery):
        raise QuerySemanticError(
            "compile_plan() takes a select query; create-function statements "
            "are session state, not deployable plans"
        )
    compiler = QueryCompiler(functions)
    graph = compiler.compile_select(statement)
    return DeploymentPlan(
        query=text,
        graph=graph,
        settings=settings if settings is not None else ExecutionSettings(),
    )
