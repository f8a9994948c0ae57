"""Coordination layer: deployer, placement resolver, node selection.

Implements the control plane of the paper's Figure 2: the client manager on
the front-end cluster (the :class:`Deployer`) registers subqueries with
their clusters (a BlueGene registration pays the bgCC's polling latency);
one placement resolver selects nodes from the cluster CNDBs — honouring
user-supplied allocation sequences — and the deployment starts a running
process on each.

The names re-exported here are the ones imported through the package
elsewhere in the repo; everything else is imported from its module.
"""

from repro.util.lazy import lazy_exports

__all__ = ["Deployer", "ExecutionReport", "QueryGraph", "SPDef", "SelectorPlacement"]

__getattr__ = lazy_exports(__name__, {
    "repro.coordinator.deployer": ("Deployer", "ExecutionReport", "SelectorPlacement"),
    "repro.coordinator.graph": ("QueryGraph", "SPDef"),
})
