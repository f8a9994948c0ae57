"""Experiment definitions reproducing the paper's figures and conclusions.

One module per measured figure (6, 8, 15) plus the ablations suggested by
the paper's conclusions; each exposes a pure builder (``*_specs``, ``scaling_sweeps``) listing the
figure's sweep points and a ``run_*`` function that measures them through the
real SCSQL pipeline and returns structured results with a text rendering.
The ``run_*`` functions are re-exported here; everything else is imported
from its module.
"""

from repro.core.experiments.ablations import (
    run_buffer_choice_ablation,
    run_node_selection_ablation,
)
from repro.core.experiments.fig6 import run_fig6
from repro.core.experiments.fig8 import run_fig8
from repro.core.experiments.fig15 import run_fig15
from repro.core.experiments.scaling import run_scaling_study

__all__ = [
    "run_fig6",
    "run_fig8",
    "run_fig15",
    "run_node_selection_ablation",
    "run_buffer_choice_ablation",
    "run_scaling_study",
]
