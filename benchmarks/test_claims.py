"""Benchmark: every paper claim (``repro.core.experiments.claims.CLAIMS``)
on the full sweeps, three repeats a point; prints each sweep's table once.

Tier-1 evaluates the same rows on the ``--quick`` sweeps.
"""

import pytest

from repro.core.experiments.claims import CLAIMS
from repro.core.measurement import run_sweep


@pytest.fixture(scope="module")
def full():
    """`run_sweep(row, repeats=3)`, measured once per row."""
    results = {}

    def measured(sweep):
        if sweep.point not in results:
            results[sweep.point] = run_sweep(sweep, repeats=3)
            print()
            print(results[sweep.point].format_table())
        return results[sweep.point]

    return measured


@pytest.mark.parametrize(
    "claim", [claim for claim in CLAIMS if claim.holds is not None], ids=lambda c: c.name
)
def test_claim_holds_on_the_full_sweeps(claim, full):
    assert claim.holds(*(full(sweep) for sweep in claim.sweeps))
