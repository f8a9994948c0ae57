"""Properties of the one structure check and the one placement walk.

The static verifier and the deployer both call
:func:`repro.coordinator.graph.check_structure` and
:func:`repro.coordinator.resolver.resolve_placement` on the one topology —
the verifier between a ``snapshot()`` and a ``restore()`` — so there is no
second implementation to agree with.  What is left to prove, over arbitrary
allocation-directive mixes on paper-shaped environments with busy and
failed nodes, is that the functions are what they claim to be:

(a) a failed walk — bare, or inside ``Deployer.deploy`` — leaves cursors,
    occupancy and fault flags exactly as it found them;
(b) ``deploy`` then ``teardown`` is the identity on that state;
(c) a deployment runs every stream process on the node the resolver
    assigns on the pre-deploy state (verifier-accepts is deploy-succeeds),
    on a private environment and on a fork of a shared template alike;
(d) two plans submitted to one environment get the verdicts
    ``Deployer.verify`` gives each just before it is submitted, whether or
    not the first went through;
(e) with a structural defect seeded into the graph as well, ``deploy``
    raises exactly the error codes ``Deployer.verify`` reports — both
    ways, structure and placement — and a deploy that raised touched
    nothing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Severity, verify_plan
from repro.coordinator.allocation import NaiveSelector
from repro.coordinator.deployer import Deployer
from repro.coordinator.resolver import placement_failure, resolve_placement
from repro.engine.sqep import plan_input, plan_op
from repro.hardware.environment import Environment, EnvironmentConfig, shared_template
from repro.scsql.plan import compile_plan
from repro.util.errors import AllocationError, PlanVerificationError

#: One BlueGene allocation directive, as SCSQL text (None = unconstrained).
#: Constants range past the 32-node torus and inPset past the 4 psets, so
#: nonexistent-node/pset rejections are generated alongside feasible mixes
#: and same-node collisions.
directive_st = st.one_of(
    st.integers(min_value=0, max_value=35).map(str),
    st.just("urr('bg')"),
    st.integers(min_value=0, max_value=4).map(lambda k: f"inPset({k})"),
    st.just("psetrr()"),
    st.none(),
)

#: BlueGene nodes taken out before the walk: held by somebody else, or dead.
damage_st = st.dictionaries(
    st.integers(min_value=0, max_value=31),
    st.sampled_from(["busy", "failed"]),
    max_size=6,
)


def build_query(directives) -> str:
    names = [f"s{i}" for i in range(len(directives))]
    decls = ", ".join(f"sp {name}" for name in names)
    conjuncts = " and ".join(
        f"{name}=sp(gen_array(10,2), 'bg'"
        + (f", {directive})" if directive is not None else ")")
        for name, directive in zip(names, directives)
    )
    if len(names) == 1:
        root = f"count(extract({names[0]}))"
    else:
        root = "count(merge({" + ",".join(names) + "}))"
    return f"select {root} from {decls} where {conjuncts};"


def damaged_environment(damage, shared: bool = False) -> Environment:
    if shared:
        env = shared_template(EnvironmentConfig()).fork()
    else:
        env = Environment(EnvironmentConfig())
    for index, kind in damage.items():
        node = env.node("bg", index)
        if kind == "busy":
            node.acquire()
        else:
            node.fail()
    return env


def state(env: Environment):
    """Cursors, per-node occupancy and fault flags, as one comparable value."""
    return env.template.snapshot()


def try_deploy(deployer: Deployer, plan):
    try:
        return deployer.deploy(deployer.place(plan))
    except (AllocationError, PlanVerificationError):
        return None


@given(directives=st.lists(directive_st, min_size=1, max_size=8), damage=damage_st)
@settings(max_examples=80, deadline=None)
def test_failed_walk_leaves_state_untouched(directives, damage):
    plan = compile_plan(build_query(directives))
    env = damaged_environment(damage)
    before = state(env)
    assignment, diagnostics = resolve_placement(
        plan.graph.instantiate(), env, NaiveSelector()
    )
    if diagnostics:
        assert state(env) == before
        assert try_deploy(Deployer(env), plan) is None
        assert state(env) == before
    else:
        assert list(assignment.nodes) == list(plan.graph.sps)
        assignment.release()
        assignment.rewind(env)
        assert state(env) == before


@given(directives=st.lists(directive_st, min_size=1, max_size=8), damage=damage_st)
@settings(max_examples=60, deadline=None)
def test_deploy_then_teardown_is_identity(directives, damage):
    env = damaged_environment(damage)
    before = state(env)
    deployer = Deployer(env)
    deployment = try_deploy(deployer, compile_plan(build_query(directives)))
    if deployment is not None:
        assert state(env) != before  # at least fe:0 hosts the collector
        deployment.teardown()
    assert state(env) == before


@given(
    directives=st.lists(directive_st, min_size=1, max_size=8),
    damage=damage_st,
    shared=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_verdict_agrees_with_deployment(directives, damage, shared):
    plan = compile_plan(build_query(directives))
    env = damaged_environment(damage, shared)
    report = verify_plan(plan, env=env)
    saved = env.template.snapshot()
    assignment, diagnostics = resolve_placement(
        plan.graph.instantiate(), env, NaiveSelector()
    )
    env.template.restore(saved)
    assert [d.code for d in report.diagnostics if d.severity is Severity.ERROR] == [
        d.code for d in diagnostics
    ]

    deployment = try_deploy(Deployer(env), plan)
    assert (deployment is not None) == report.ok()
    if deployment is not None:
        assert {
            sp_id: deployment.rps[sp_id].node.node_id for sp_id in plan.graph.sps
        } == {sp_id: node.node_id for sp_id, node in assignment.nodes.items()}


#: A structural defect seeded into a compiled graph -> the code it earns.
DEFECT_CODES = {
    "no-root": "SCSQ001",
    "no-plan": "SCSQ001",
    "unknown-producer": "SCSQ002",
    "cycle": "SCSQ003",
}
defect_st = st.sampled_from([None, *DEFECT_CODES])  # None: left intact


def seed_defect(graph, defect, pick):
    """Break ``graph`` in place; ``pick`` chooses the stream process."""
    sps = list(graph.sps.values())
    victim = sps[pick % len(sps)]
    if defect == "no-root":
        graph.root_plan = None
    elif defect == "no-plan":
        victim.plan = None
    elif defect == "unknown-producer":
        victim.plan = plan_op("count", children=(plan_input("ghost"),))
    elif defect == "cycle":  # victim <- next <- victim (a self-loop of one)
        other = sps[(pick + 1) % len(sps)]
        victim.plan = plan_input(other.sp_id)
        other.plan = plan_input(victim.sp_id)


@given(
    directives=st.lists(directive_st, min_size=1, max_size=6),
    damage=damage_st,
    defect=defect_st,
    pick=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=120, deadline=None)
def test_deploy_raises_what_the_verifier_reports(directives, damage, defect, pick):
    graph = compile_plan(build_query(directives)).graph.instantiate()
    seed_defect(graph, defect, pick)
    env = damaged_environment(damage)
    before = state(env)
    deployer = Deployer(env)
    placed = deployer.place(graph)
    errors = [found.code for found in deployer.verify(placed).errors]
    if defect is not None:  # structure errors stop the verifier too
        assert errors == [DEFECT_CODES[defect]]
    assert state(env) == before  # verify is pure
    try:
        deployment = deployer.deploy(placed)
    except (AllocationError, PlanVerificationError) as raised:
        assert errors and [found.code for found in raised.diagnostics] == errors
        assert state(env) == before
    else:
        assert errors == []
        deployment.teardown()
        assert state(env) == before


@given(directives=st.lists(directive_st, min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_concurrent_verdicts_agree_with_shared_environment(directives):
    """Two copies of one plan, one environment: the verifier's cross-plan
    finding (SCSQ201) agrees with submitting both to one deployer."""
    plan_text = build_query(directives)
    deployer = Deployer(Environment(EnvironmentConfig()))
    first = deployer.verify(compile_plan(plan_text), label="first")
    assert first.ok() == (try_deploy(deployer, compile_plan(plan_text)) is not None)
    second = deployer.verify(compile_plan(plan_text), label="second")
    assert second.ok() == (try_deploy(deployer, compile_plan(plan_text)) is not None)


def test_pinned_failed_node_is_its_own_finding():
    """A dead pinned node is SCSQ108 — not SCSQ201, nobody holds it — and
    still means "no available node": unverified deploys raise
    AllocationError, and the failed walk leaves the state untouched."""
    plan = compile_plan(build_query(["3", "7"]))
    env = damaged_environment({7: "failed"})
    before = state(env)
    _, diagnostics = resolve_placement(
        plan.graph.instantiate(), env, NaiveSelector()
    )
    assert [(d.code, d.sp_id) for d in diagnostics] == [("SCSQ108", "s1@2")]
    assert "bg:7" in diagnostics[0].message and "failed" in diagnostics[0].message
    assert isinstance(placement_failure(diagnostics), AllocationError)
    with pytest.raises(AllocationError, match="has failed"):
        deployer = Deployer(env)
        deployer.deploy(deployer.place(plan))
    assert state(env) == before
