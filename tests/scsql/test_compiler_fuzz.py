"""Fuzzing the compiler: random ASTs must fail *cleanly* or compile.

Whatever hypothesis throws at it, the compiler may only raise
:class:`QueryError` subclasses (semantic rejection) — never KeyError,
AttributeError, RecursionError, or other internal crashes.
"""

from hypothesis import given, settings

from repro.scsql.compiler import QueryCompiler
from repro.util.errors import QueryError
from tests.scsql.strategies import queries


@given(query=queries)
@settings(max_examples=300, deadline=None)
def test_compiler_rejects_garbage_cleanly(query):
    compiler = QueryCompiler()
    try:
        graph = compiler.compile_select(query)
    except QueryError:
        return  # clean semantic rejection
    # If it compiled, the graph must be internally consistent.
    graph.validate()
