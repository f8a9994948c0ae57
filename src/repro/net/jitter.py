"""Deterministic cost jitter for repeated measurement runs.

The paper repeats each experiment five times "in order to achieve low
variance in the measurements" — the testbed has real noise.  The simulation
is deterministic, so repeated runs would be identical; :class:`Jitter`
injects a small seeded multiplicative noise on every modelled cost so the
five-repeat statistics are meaningful while staying reproducible.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.util.errors import SimulationError


class Jitter:
    """Seeded multiplicative noise: ``apply(cost)`` is ``cost`` times a
    factor ~ Uniform(1-m, 1+m), one draw per modelled cost."""

    __slots__ = ("magnitude", "seed", "_rng", "_random", "_low", "_span")

    def __init__(self, magnitude: float = 0.0, seed: int = 0):
        if magnitude < 0 or magnitude >= 1:
            raise SimulationError(f"jitter magnitude must be in [0, 1), got {magnitude}")
        self.magnitude = magnitude
        self.seed = seed
        self._rng = random.Random(seed)
        self._random = self._rng.random
        # ``Random.uniform(a, b)`` is ``a + (b - a) * random()``; its two
        # operands for ``(-m, m)``, computed once, give the same factor
        # bit for bit without the two calls around the draw.
        self._low = -magnitude
        self._span = magnitude - (-magnitude)

    def apply(self, cost: float) -> float:
        """``cost`` scaled by one noise factor (never negative); exactly
        ``cost``, with no draw, when the magnitude is zero."""
        if self.magnitude == 0.0:
            return cost
        return cost * (1.0 + (self._low + self._span * self._random()))


class KeyedJitter(Jitter):
    """Schedule-order-independent jitter: the factor is keyed by the cost.

    The stock :class:`Jitter` draws from one sequential generator, so the
    factor a transfer gets depends on *how many draws happened before it* —
    i.e. on the exact event dispatch order.  That coupling is fine for
    normal runs (the order is deterministic) but poisons the schedule-race
    detector: replaying a harness under a permuted same-instant order
    permutes the draw sequence and every result diverges for a reason that
    has nothing to do with the code under test.

    This variant derives each factor as a pure function of ``(seed, cost)``
    — equal modelled costs get equal noise, and no draw observes any other
    draw — so results become invariant under any legal dispatch order while
    the noise stays seeded and reproducible.  It is installed only by the
    chaos harness (:func:`jitter_override` via
    :func:`repro.analysis.sanitize.chaos`); golden baselines are produced
    with the sequential generator and are untouched.
    """

    def apply(self, cost: float) -> float:
        if self.magnitude == 0.0:
            return cost
        # Numeric-only tuple hash: stable across processes and supported
        # Python versions (no string hash randomization involved).
        noise = random.Random(hash((self.seed, cost))).uniform(
            -self.magnitude, self.magnitude
        )
        return cost * (1.0 + noise)


#: When set, :func:`make_jitter` builds through this factory instead of the
#: stock :class:`Jitter`.  Installed (scoped) by :func:`jitter_override`.
_FACTORY_OVERRIDE: Optional[Callable[[float, int], Jitter]] = None


@contextmanager
def jitter_override(factory: Callable[[float, int], Jitter]) -> Iterator[None]:
    """Scope within which environments draw jitter from ``factory``.

    ``factory`` is called as ``factory(magnitude, seed)`` by every
    :func:`make_jitter` in the scope (i.e. every environment built inside
    it).  Overrides do not nest — an inner scope replaces the outer factory
    and restores it on exit.
    """
    global _FACTORY_OVERRIDE
    previous = _FACTORY_OVERRIDE
    _FACTORY_OVERRIDE = factory
    try:
        yield
    finally:
        _FACTORY_OVERRIDE = previous


def make_jitter(magnitude: float = 0.0, seed: int = 0) -> Jitter:
    """The jitter source an environment should use (override-aware)."""
    if _FACTORY_OVERRIDE is not None:
        return _FACTORY_OVERRIDE(magnitude, seed)
    return Jitter(magnitude, seed)
