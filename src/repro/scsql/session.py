"""User sessions: the front door of the SCSQ reproduction.

A :class:`SCSQSession` plays the role of the paper's client manager
interaction: users submit SCSQL statements; select queries are compiled,
deployed on the session's environment, executed to completion, and their
results returned together with an execution report.  ``create function``
statements register user-defined query functions (e.g. the paper's
``radix2``) for use in later queries.

Because one simulated environment accumulates state (node placements,
simulated time), a *measurement* typically uses a fresh session per run;
:mod:`repro.core.measurement` automates that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Optional

from repro.coordinator.deployer import CostBasedPlacement, Deployer, ExecutionReport
from repro.engine.operators.sources import external_sources
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import Environment, EnvironmentConfig
from repro.scsql.ast import CreateFunction, SelectQuery
from repro.scsql.compiler import FunctionDef, QueryCompiler
from repro.scsql.parser import parse
from repro.util.errors import QuerySemanticError

if TYPE_CHECKING:
    from repro.coordinator.graph import QueryGraph
    from repro.scsql.plan import DeploymentPlan


class SCSQSession:
    """An interactive session against one simulated environment."""

    def __init__(
        self,
        env: Optional[Environment] = None,
        settings: Optional[ExecutionSettings] = None,
    ):
        self.env = env or Environment(EnvironmentConfig())
        self.settings = settings or ExecutionSettings()
        self.deployer = Deployer(self.env)
        self.functions: Dict[str, FunctionDef] = {}
        self.sources: Dict[str, Callable[[], Iterable[Any]]] = {}

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def execute(
        self,
        text: str,
        settings: Optional[ExecutionSettings] = None,
        stop_after: Optional[float] = None,
        optimize: bool = False,
    ) -> Optional[ExecutionReport]:
        """Run one SCSQL statement.

        Select queries return an :class:`ExecutionReport`; ``create
        function`` statements register the function and return None.
        ``stop_after`` terminates the query that many simulated seconds
        after the query starts — needed for unbounded continuous queries
        (e.g. ``gen_array(n, -1)``), and usable to truncate finite ones.  ``optimize=True`` runs the
        cost-based placer over stream processes that carry no explicit
        allocation sequence (user-specified topologies always win).
        """
        statement = parse(text)
        if isinstance(statement, CreateFunction):
            self._define_function(statement)
            return None
        assert isinstance(statement, SelectQuery)
        compiler = QueryCompiler(self.functions)
        graph = compiler.compile_select(statement)
        with external_sources(self.sources):
            return self.deployer.run(
                graph,
                strategy=CostBasedPlacement() if optimize else None,
                settings=settings or self.settings,
                stop_after=stop_after,
            )

    def compile(self, text: str) -> "QueryGraph":
        """Compile a select query without executing it (for inspection)."""
        statement = parse(text)
        if not isinstance(statement, SelectQuery):
            raise QuerySemanticError("compile() takes a select query")
        compiler = QueryCompiler(self.functions)
        return compiler.compile_select(statement)

    def plan(self, text: str) -> "DeploymentPlan":
        """Compile a select query into a reusable, environment-independent
        :class:`~repro.scsql.plan.DeploymentPlan` (this session's functions
        are visible to the query)."""
        from repro.scsql.plan import compile_plan  # session is imported by plan users

        return compile_plan(text, functions=self.functions, settings=self.settings)

    def explain(self, text: str) -> str:
        """Compile a query and describe its process graph without running it.

        Shows each stream process's cluster, subquery plan, and subscription
        edges, plus — for stream processes without explicit allocation
        sequences — the placement the cost-based optimizer would choose and
        its predicted bottleneck bandwidth.
        """
        from repro.optimizer import CostBasedPlacer  # avoid an import cycle
        from repro.util.units import format_rate

        graph = self.compile(text)
        lines = [graph.describe()]
        if any(sp.allocation is None for sp in graph.sps.values()):
            placer = CostBasedPlacer(self.env, self.settings)
            assignment = placer.place(graph)
            predicted = placer.predicted_bandwidth(graph, assignment)
            lines.append("optimizer placement:")
            for sp_id, index in sorted(assignment.items()):
                cluster = graph.sps[sp_id].cluster
                lines.append(f"  {sp_id} -> {cluster}:{index}")
            if predicted != float("inf"):
                lines.append(f"predicted bottleneck bandwidth: {format_rate(predicted)}")
        return "\n".join(lines)

    def _define_function(self, definition: CreateFunction) -> None:
        if definition.name in self.functions:
            raise QuerySemanticError(
                f"function {definition.name!r} is already defined in this session"
            )
        self.functions[definition.name] = FunctionDef(definition)

    # ------------------------------------------------------------------
    # External sources
    # ------------------------------------------------------------------
    def register_source(self, name: str, factory: Callable[[], Iterable[Any]]) -> None:
        """Register (or replace) this session's external source ``name``
        for ``receiver(name)``: this session's queries deploy with it in
        scope (:func:`~repro.engine.operators.sources.external_sources`),
        and no other session sees it."""
        self.sources[name] = factory
