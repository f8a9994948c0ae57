"""Hypothesis strategies over SCSQL ASTs, shared by the fuzz suites.

``test_compiler_fuzz`` feeds :data:`queries` to the compiler directly;
``test_text_fuzz`` unparses them into text for the front end.
"""

from hypothesis import strategies as st

from repro.scsql.ast import (
    CondKind,
    Condition,
    Decl,
    FuncCall,
    Literal,
    SelectQuery,
    SetExpr,
    Var,
)

# Names drawn from a pool that includes builtin function names, cluster
# strings, and plain variables — maximizing weird collisions.
names = st.sampled_from(
    ["a", "b", "c", "n", "i", "p", "sp", "spv", "extract", "merge",
     "count", "iota", "gen_array", "urr", "first", "bg", "be"]
)
literals = st.one_of(
    st.integers(-10, 10_000_000).map(Literal),
    st.sampled_from(["bg", "be", "fe", "gpu", "pattern"]).map(Literal),
)


def exprs(depth=3):
    if depth == 0:
        return st.one_of(literals, names.map(Var))
    sub = exprs(depth - 1)
    return st.one_of(
        literals,
        names.map(Var),
        st.builds(FuncCall, name=names, args=st.lists(sub, max_size=3).map(tuple)),
        st.builds(SetExpr, items=st.lists(sub, min_size=1, max_size=3).map(tuple)),
        st.builds(
            SelectQuery,
            select=sub,
            decls=st.lists(
                st.builds(
                    Decl,
                    name=names,
                    type_name=st.sampled_from(["sp", "integer", "string"]),
                    is_bag=st.booleans(),
                ),
                min_size=1,
                max_size=2,
            ).map(tuple),
            conditions=st.lists(
                st.builds(
                    Condition,
                    kind=st.sampled_from([CondKind.EQ, CondKind.IN]),
                    var=names,
                    expr=sub,
                ),
                max_size=2,
            ).map(tuple),
        ),
    )


queries = st.builds(
    SelectQuery,
    select=exprs(),
    decls=st.lists(
        st.builds(
            Decl,
            name=names,
            type_name=st.sampled_from(["sp", "integer", "string", "stream"]),
            is_bag=st.booleans(),
        ),
        min_size=1,
        max_size=4,
    ).map(tuple),
    conditions=st.lists(
        st.builds(
            Condition,
            kind=st.sampled_from([CondKind.EQ, CondKind.IN]),
            var=names,
            expr=exprs(),
        ),
        max_size=4,
    ).map(tuple),
)
