"""Concurrent-CQ contention demo: two queries sharing one I/O-node path.

Figure 15's central observation is that inbound queries whose BlueGene
receivers sit in a single pset are bottlenecked by that pset's one I/O
node.  This demo makes the same point with *concurrent* continuous
queries: two independent Query-3-shaped CQs (one back-end sender node
each, receivers pinned to ``inPset(1)``) are deployed together on one
environment, so both result streams funnel through pset 1's I/O-node
tree links at the same time.

Each query is first measured solo on a fresh environment (same seed),
then both run concurrently via
:class:`~repro.core.multiquery.MultiQuerySession`; the reported
interference ratio (concurrent/solo bandwidth) quantifies how much of
the shared path each CQ loses to the other.
"""

from __future__ import annotations

from typing import Dict

from repro.coordinator.deployer import Deployer
from repro.core.multiquery import MultiQueryResult, MultiQuerySession
from repro.hardware.environment import EnvironmentConfig, shared_template
from repro.obs.instrument import live_instrumentation
from repro.scsql.plan import DeploymentPlan, compile_plan
from repro.util.units import MEGA

#: Back-end sender node per query: distinct senders, so the only shared
#: resource is the receiving pset's I/O-node path.
DEFAULT_SENDERS: Dict[str, int] = {"qA": 1, "qB": 2}

#: The contended pset (both queries pin their receivers into it).
SHARED_PSET = 1


def contending_query(sender_node: int, n: int, array_bytes: int, count: int) -> str:
    """A Figure-15 Query-3-shaped CQ with an explicit back-end sender node.

    ``n`` array streams leave back-end node ``sender_node``; each is
    counted on its own compute node inside pset :data:`SHARED_PSET`, and
    the counts are summed on one further BlueGene node.
    """
    return f"""
select extract(c) from
bag of sp a, bag of sp b, sp c, integer n
where c=sp(streamof(sum(merge(b))), 'bg')
and b=spv(
  (select streamof(count(extract(p)))
   from sp p
   where p in a),
  'bg', inPset({SHARED_PSET}))
and a=spv(
  (select gen_array({array_bytes},{count})
   from integer i where i in iota(1,n)),
  'be', {sender_node})
and n={n};
"""


def run_contention_demo(
    n: int = 2,
    array_bytes: int = 3_000_000,
    count: int = 5,
    seed: int = 0,
    live: bool = False,
) -> MultiQueryResult:
    """Measure two CQs solo, then concurrently, on same-seed environments.

    Each plan is compiled once and deployed three times — twice solo (one
    fresh environment per query, so the baselines are undisturbed) and
    once into the shared concurrent session — exercising exactly the
    compile-once lifecycle the deployment plans exist for.

    Returns the concurrent :class:`~repro.core.multiquery.MultiQueryResult`
    with each outcome's ``solo_mbps`` baseline attached, so
    ``outcome.interference`` is the concurrent/solo bandwidth ratio.
    ``live`` additionally watches the concurrent run with a
    :class:`~repro.obs.live.LiveSampler`, attached finalized as
    ``result.live``; the solo baselines stay uninstrumented.
    """
    config = EnvironmentConfig().with_seed(seed)
    payload = n * array_bytes * count
    plans: Dict[str, DeploymentPlan] = {
        label: compile_plan(contending_query(sender, n, array_bytes, count))
        for label, sender in DEFAULT_SENDERS.items()
    }
    solo: Dict[str, float] = {}
    for label, plan in plans.items():
        env = shared_template(config).fork(seed=config.seed)
        deployer = Deployer(env)
        report = deployer.run(plan)
        deployer.teardown()
        solo[label] = payload * 8.0 / report.duration / MEGA
    obs, sampler = live_instrumentation() if live else (None, None)
    shared_env = shared_template(config).fork(seed=config.seed, obs=obs)
    session = MultiQuerySession(shared_env)
    for label, plan in plans.items():
        session.submit(plan, payload_bytes=payload, label=label)
    result = session.run()
    session.teardown()
    if sampler is not None:
        sampler.finalize(shared_env.sim.now)
        result.live = sampler
    for outcome in result.outcomes:
        outcome.solo_mbps = solo[outcome.label]
    return result
