"""Unit tests for the SCSQL compiler (setup evaluation, plan building)."""

import pytest

from repro.coordinator.allocation import (
    ExplicitNodesSpec,
    InPsetSpec,
    NaiveSelector,
    UrrSpec,
)
from repro.coordinator.resolver import resolve_placement
from repro.scsql.compiler import QueryCompiler
from repro.scsql.parser import parse_query
from repro.util.errors import QuerySemanticError


def compile_text(text, functions=None):
    return QueryCompiler(functions).compile_select(parse_query(text))


def placements(env, graph):
    """Node index per stream process, in graph order, as deployed."""
    assignment, diagnostics = resolve_placement(graph, env, NaiveSelector())
    assert diagnostics == []
    return [node.index for node in assignment.nodes.values()]


class TestBasicCompilation:
    def test_simple_sp_graph(self):
        graph = compile_text(
            "select extract(b) from sp a, sp b "
            "where b=sp(count(extract(a)), 'bg', 0) "
            "and a=sp(gen_array(1000,3), 'bg', 1)",
        )
        assert len(graph.sps) == 2
        assert graph.root_plan.name == "input"
        plans = {sp.plan.name for sp in graph.sps.values()}
        assert plans == {"count", "gen_array"}

    def test_definitions_in_any_order(self):
        """Query 1 defines c before b; the compiler reorders."""
        graph = compile_text(
            "select extract(c) from sp b, sp c "
            "where c=sp(extract(b), 'bg') and b=sp(iota(1,3), 'bg')",
        )
        assert len(graph.sps) == 2

    def test_forward_stream_reference_is_not_a_cycle(self):
        """The radix2 pattern: a extracts from c, c defined later."""
        graph = compile_text(
            "select extract(a) from sp a, sp c "
            "where a=sp(count(extract(c)), 'bg') and c=sp(iota(1,9), 'bg')",
        )
        assert len(graph.sps) == 2

    def test_true_setup_cycle_rejected(self):
        with pytest.raises(QuerySemanticError, match="cyclic"):
            compile_text(
                "select n from integer n, integer m where n=iota(1,m) and m=iota(1,n)",
            )

    def test_spv_expands_iteration(self):
        graph = compile_text(
            "select merge(a) from bag of sp a, integer n "
            "where a=spv((select gen_array(100,1) from integer i "
            "where i in iota(1,n)), 'be', 1) and n=5",
        )
        assert len(graph.sps) == 5
        assert len(list(graph.root_plan.input_leaves())) == 5

    def test_spv_over_sp_bag(self):
        graph = compile_text(
            "select extract(c) from bag of sp a, bag of sp b, sp c, integer n "
            "where c=sp(sum(merge(b)), 'bg') "
            "and b=spv((select count(extract(p)) from sp p where p in a), 'bg') "
            "and a=spv((select gen_array(100,2) from integer i "
            "where i in iota(1,n)), 'be') and n=3",
        )
        # 3 generators + 3 counters + 1 summer.
        assert len(graph.sps) == 7

    def test_spv_set_expression(self):
        graph = compile_text(
            "select merge(a) from bag of sp a "
            "where a=spv({iota(1,3), iota(4,6)}, 'bg')",
        )
        assert len(graph.sps) == 2

    def test_name_hints_in_sp_ids(self):
        graph = compile_text(
            "select extract(b) from sp a, sp b "
            "where b=sp(count(extract(a)), 'bg') and a=sp(iota(1,2), 'bg')",
        )
        hints = {sp_id.split("@")[0] for sp_id in graph.sps}
        assert hints == {"a", "b"}


class TestAllocationResolution:
    def test_constant_allocation_compiles_to_spec(self):
        graph = compile_text(
            "select extract(a) from sp a where a=sp(iota(1,2), 'bg', 7)"
        )
        (sp,) = [sp for sp in graph.sps.values() if sp.sp_id.startswith("a")]
        # The compiled form is symbolic and environment-free...
        assert sp.allocation == ExplicitNodesSpec((7,))
        assert sp.allocation.constant_node == 7

    def test_constant_allocation(self, env):
        graph = compile_text(
            "select extract(a) from sp a where a=sp(iota(1,2), 'bg', 7)"
        )
        assert placements(env, graph) == [7]

    def test_urr_allocation(self, env):
        graph = compile_text(
            "select merge(a) from bag of sp a "
            "where a=spv((select gen_array(10,1) from integer i "
            "where i in iota(1,3)), 'be', urr('be'))",
        )
        # All spv members share one spec instance from the compiler...
        specs = {id(sp.allocation) for sp in graph.sps.values()}
        assert len(specs) == 1
        assert next(iter(graph.sps.values())).allocation == UrrSpec("be")
        # ...which resolves once and is shared: placements spread over be nodes.
        assert set(placements(env, graph)) == {0, 1, 2}

    def test_inpset_resolved_against_target_cluster(self, env):
        graph = compile_text(
            "select extract(b) from sp b where b=sp(iota(1,2), 'bg', inPset(1))",
        )
        (sp,) = graph.sps.values()
        assert sp.allocation == InPsetSpec("bg", 1)
        (index,) = placements(env, graph)
        assert env.bluegene.pset_of(index) == 1

    def test_allocation_query_outside_sp_rejected(self):
        with pytest.raises(QuerySemanticError, match="allocation sequence"):
            compile_text("select n from integer n where n=psetrr()")

    def test_bad_allocation_value_rejected(self):
        with pytest.raises(QuerySemanticError, match="allocation"):
            compile_text(
                "select extract(a) from sp a where a=sp(iota(1,2), 'bg', 'east')"
            )


class TestSemanticErrors:
    def test_unknown_cluster(self):
        with pytest.raises(QuerySemanticError, match="unknown cluster"):
            compile_text("select extract(a) from sp a where a=sp(iota(1,2), 'gpu')")

    def test_undeclared_variable(self):
        with pytest.raises(QuerySemanticError, match="not declared"):
            compile_text("select extract(a) from sp a where q=sp(iota(1,2), 'bg')")

    def test_unbound_variable(self):
        with pytest.raises(QuerySemanticError, match="undeclared variable"):
            compile_text("select extract(q) from sp a where a=sp(iota(1,2), 'bg')")

    def test_double_definition(self):
        with pytest.raises(QuerySemanticError, match="defined twice"):
            compile_text(
                "select n from integer n where n=1 and n=2",
            )

    def test_top_level_iteration_rejected(self):
        with pytest.raises(QuerySemanticError, match="spv"):
            compile_text("select i from integer i where i in iota(1,3)")

    def test_extract_needs_sp(self):
        with pytest.raises(QuerySemanticError, match="extract"):
            compile_text("select extract(n) from integer n where n=4")

    def test_extract_of_bag_rejected(self):
        with pytest.raises(QuerySemanticError, match="merge"):
            compile_text(
                "select extract(a) from bag of sp a "
                "where a=spv({iota(1,2)}, 'bg')",
            )

    def test_merge_of_scalar_rejected(self):
        with pytest.raises(QuerySemanticError, match="merge"):
            compile_text("select merge(n) from integer n where n=4")

    def test_unknown_function(self):
        with pytest.raises(QuerySemanticError, match="unknown function"):
            compile_text("select teleport(a) from sp a where a=sp(iota(1,2), 'bg')")

    def test_sp_in_stream_context_rejected(self):
        with pytest.raises(QuerySemanticError, match="stream process"):
            compile_text("select sp(iota(1,2), 'bg') from integer n where n=1")

    def test_bad_arity(self):
        with pytest.raises(QuerySemanticError, match="argument"):
            compile_text("select count() from integer n where n=1")

    def test_set_expr_is_not_a_stream(self):
        with pytest.raises(QuerySemanticError, match="set expression"):
            compile_text(
                "select {a,b} from sp a, sp b "
                "where a=sp(iota(1,2), 'bg') and b=sp(iota(1,2), 'bg')",
            )


class TestUserFunctions:
    def _radix2(self):
        from repro.scsql.ast import CreateFunction
        from repro.scsql.compiler import FunctionDef
        from repro.scsql.parser import parse

        definition = parse(
            """
            create function radix2(string s) -> stream
            as select radixcombine(merge({a,b}))
            from sp a, sp b, sp c
            where a=sp(fft(odd(extract(c))), 'bg')
            and b=sp(fft(even(extract(c))), 'bg')
            and c=sp(receiver(s), 'bg');
            """
        )
        assert isinstance(definition, CreateFunction)
        return {"radix2": FunctionDef(definition)}

    def test_function_expansion_creates_sps(self):
        graph = compile_text(
            "select radix2('test-sig') from integer z where z=0",
            functions=self._radix2(),
        )
        assert len(graph.sps) == 3
        assert graph.root_plan.name == "radixcombine"

    def test_wrong_arity_rejected(self):
        with pytest.raises(QuerySemanticError, match="argument"):
            compile_text(
                "select radix2('a','b') from integer z where z=0",
                functions=self._radix2(),
            )

    def test_function_body_cannot_see_caller_vars(self):
        from repro.scsql.ast import CreateFunction
        from repro.scsql.compiler import FunctionDef
        from repro.scsql.parser import parse

        definition = parse(
            "create function leaky() -> stream as "
            "select extract(a) from sp a where a=sp(iota(1,hidden), 'bg')"
        )
        functions = {"leaky": FunctionDef(definition)}
        with pytest.raises(QuerySemanticError, match="hidden"):
            compile_text(
                "select leaky() from integer hidden where hidden=4",
                functions=functions,
            )


class TestSetupLevelNestedSelects:
    def test_nested_select_as_setup_bag(self):
        """A nested select in setup context denotes a bag of values."""
        graph = compile_text(
            "select merge(g) from bag of sp g, integer n "
            "where g=spv((select grep('NEEDLE', filename(i)) "
            "from integer i where i in iota(1,n)), 'be') and n=3",
        )
        assert len(graph.sps) == 3
        patterns = {sp.plan.args for sp in graph.sps.values()}
        # Each grep got a distinct filename from the setup-level filename(i).
        assert len(patterns) == 3

    def test_cartesian_iteration(self):
        graph = compile_text(
            "select merge(g) from bag of sp g "
            "where g=spv((select gen_array(100,1) "
            "from integer i, integer j "
            "where i in iota(1,2) and j in iota(1,3)), 'be')",
        )
        assert len(graph.sps) == 6

    def test_allocation_from_set_expression(self, env):
        graph = compile_text(
            "select merge(a) from bag of sp a "
            "where a=spv({iota(1,2), iota(3,4)}, 'bg', {5, 6})",
        )
        assert placements(env, graph) == [5, 6]

    def test_duplicate_iteration_variable_rejected(self):
        with pytest.raises(QuerySemanticError, match="two 'in' conditions"):
            compile_text(
                "select merge(a) from bag of sp a "
                "where a=spv((select gen_array(100,1) "
                "from integer i where i in iota(1,2) and i in iota(1,2)), 'be')",
            )

    def test_iteration_over_scalar_rejected(self):
        with pytest.raises(QuerySemanticError, match="bag"):
            compile_text(
                "select merge(a) from bag of sp a, integer n "
                "where n=4 and a=spv((select gen_array(100,1) "
                "from integer i where i in n), 'be')",
            )

    def test_first_requires_two_args(self):
        with pytest.raises(QuerySemanticError, match="first"):
            compile_text(
                "select first(extract(a)) from sp a where a=sp(iota(1,3), 'bg')",
            )
