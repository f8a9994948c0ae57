"""Experiment definitions reproducing the paper's figures and conclusions.

One module per measured figure (6, 8, 15) plus the ablations suggested by
the paper's conclusions and the scaling extension.  Each exposes a pure
builder (``*_specs``) listing the figure's sweep points, keyed by a
``NamedTuple`` whose fields are the sweep's axes, and the free functions
that state the figure's claims.  :data:`FIGURES` declares every measured
sweep as one :class:`~repro.core.experiments.figures.Sweep` row;
:func:`~repro.core.measurement.run_sweep` measures a row through the real
SCSQL pipeline.  It is the only enumeration of sweeps: the figure
commands, the bench gate and the claims
(:data:`~repro.core.experiments.claims.CLAIMS`, one predicate per paper
claim over the sweeps it reads) read it.
"""

from repro.util.lazy import lazy_exports

__all__ = ["FIGURES"]

__getattr__ = lazy_exports(__name__, {"repro.core.experiments.figures": ("FIGURES",)})
