"""The paper's claims as data: :data:`CLAIMS`, one :class:`Claim` row per
claim, beside :data:`~repro.core.experiments.figures.FIGURES`.

A row names the ``FIGURES`` sweeps it reads and a predicate over their
:class:`~repro.core.measurement.SweepResult` s, in that order.  A predicate
reads each sweep at its own extremes (smallest and largest buffer, stream
count or partition) and at the points the paper names (1 000 B, n = 4), so
one row holds on the ``--quick`` sweeps and on the full ones.  Tier-1
evaluates every row on the quick sweeps, ``benchmarks/test_claims.py`` on
the full sweeps, and EXPERIMENTS.md's claim tables list the rows' words and
verdicts in this order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.core.experiments.ablations import improvement, optimal_buffer
from repro.core.experiments.contention import query_mbps
from repro.core.experiments.fig8 import balanced_advantage
from repro.core.experiments.figures import FIGURES, Sweep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.measurement import SweepResult


class Claim(NamedTuple):
    """One comparative claim of the paper's evaluation."""

    name: str  # "<figure>.<claim>", the id tests and docs refer to
    section: str  # where the paper makes it
    verdict: str  # "yes", "partly" or "no (deliberate)": EXPERIMENTS.md's "Holds?" cell
    words: str  # the paper's words: EXPERIMENTS.md's "Paper claim" cell
    sweeps: Tuple[Sweep, ...]  # the FIGURES rows the predicate reads, in argument order
    holds: Optional[Callable[..., bool]]  # over their results; None: not reproduced


(FIG6,), (FIG8,), (FIG15,) = FIGURES["fig6"], FIGURES["fig8"], FIGURES["fig15"]
(SELECTOR, BUFFERS), (SCALING,) = FIGURES["ablations"], FIGURES["scaling"]
(MULTIQUERY,) = FIGURES["multiquery"]

KNEE = 1000  # the paper's optimal buffer size, bytes
BOTH = (False, True)


def _axis(result: SweepResult) -> List[Any]:
    """The values of the sweep's row axis, ascending."""
    return sorted({getattr(key, result.sweep.row) for key in result.points})


def _curve(result: SweepResult, **fixed: Any) -> Dict[Any, float]:
    """Mean Mbps by row-axis value, with the other axes ``fixed``."""
    return {getattr(key, result.sweep.row): p.mean_mbps for key, p in result.curve(**fixed)}


def _modes(result: SweepResult, **fixed: Any) -> List[Dict[Any, float]]:
    """The single- and the double-buffered curve."""
    return [_curve(result, double_buffering=double, **fixed) for double in BOTH]


def _at(result: SweepResult, *key: Any) -> float:
    return result.at(*key).mean_mbps


def _spread(values: Iterable[float]) -> float:
    values = list(values)
    return max(values) / min(values)


def _double_gain(result: SweepResult, size: int, **fixed: Any) -> float:
    """Double- over single-buffered bandwidth at one buffer size."""
    single, double = _modes(result, **fixed)
    return double[size] / single[size]


def _balance(fig8: SweepResult, size: int) -> List[float]:
    """Balanced over sequential node selection at one buffer size, per mode."""
    return [
        balanced[size] / sequential[size]
        for sequential, balanced in zip(_modes(fig8, balanced=False), _modes(fig8, balanced=True))
    ]


def _growth(scaling: SweepResult, query_number: int, uplink_gbps: float) -> float:
    """Bandwidth at the largest partition over that at the smallest."""
    curve = _curve(scaling, query_number=query_number, uplink_gbps=uplink_gbps)
    return curve[max(curve)] / curve[min(curve)]


def _below_the_knee(fig6: SweepResult) -> bool:
    for curve in _modes(fig6):
        below = [curve[size] for size in sorted(curve) if size <= KNEE]
        if not (all(a < b for a, b in zip(below, below[1:])) and below[0] < 0.75 * curve[KNEE]):
            return False
    return True


def _merging_wants_large_buffers(fig8: SweepResult) -> bool:
    curve = _curve(fig8, balanced=True, double_buffering=True)
    peak = max(curve.values())
    return curve[KNEE] < 0.5 * peak and all(curve[b] < 0.7 * peak for b in curve if b < 5000)


def _q5_peaks_at_four(fig15: SweepResult) -> bool:
    q5 = _curve(fig15, query_number=5)
    peak = max(q5.values())
    return (850 <= peak <= 960 and q5[4] >= 0.98 * peak
            and q5[4] == max(mbps for n, mbps in q5.items() if n <= 5))


def _q5_at_the_uplink(scaling: SweepResult) -> bool:
    q5 = _curve(scaling, query_number=5, uplink_gbps=1.0).values()
    return _spread(q5) < 1.05 and all(850 <= mbps <= 960 for mbps in q5)


def _solo(multiquery: SweepResult, n: int) -> float:
    return _at(multiquery, 1, n, "same", "shared")


FIG6_SECTION, FIG8_SECTION, FIG15_SECTION = "§3.1, Fig. 6", "§3.1, Fig. 8", "§3.2, Fig. 15"
MODEL = "model relation, no paper number"
OPEN_QUESTION = '"what happens for large amounts of back-end and I/O nodes"'

#: Every claim of the paper's evaluation, in EXPERIMENTS.md's order.
CLAIMS: Tuple[Claim, ...] = (
    Claim("fig6.optimum", FIG6_SECTION, "yes",
          '"the optimal buffer size is 1000 bytes for both single and double buffering"',
          (FIG6,), lambda r: all(max(c, key=c.get) == KNEE for c in _modes(r))),
    Claim("fig6.below_the_knee", FIG6_SECTION, "yes",
          'degradation below 1 KB ("1K is the smallest message size that can be exchanged '
          'in the BlueGene 3D torus")',
          (FIG6,), _below_the_knee),
    Claim("fig6.above_the_knee", FIG6_SECTION, "yes",
          '"drop-off above the 1000-byte buffer size is probably due to cache misses"',
          (FIG6,), lambda r: all(c[b] < c[KNEE] for c in _modes(r) for b in c if b > KNEE)),
    Claim("fig6.double_pays_off", FIG6_SECTION, "yes",
          '"double buffering pays off for large buffers"',
          (FIG6,), lambda r: _double_gain(r, _axis(r)[-1]) > 1.15),
    Claim("fig6.double_small", FIG6_SECTION, "yes",
          'double buffering gains little for small buffers (the converse of "pays off for '
          'large buffers")',
          (FIG6,),
          lambda r: _double_gain(r, _axis(r)[0]) < min(1.1, _double_gain(r, _axis(r)[-1]))),
    Claim("fig6.bumps", FIG6_SECTION, "no (deliberate)",
          '"a number of bumps are clearly seen in the double-buffer curve. No explanation ... '
          'can be found"',
          (FIG6,), None),
    Claim("fig8.selection_matters", FIG8_SECTION, "yes",
          '"streaming bandwidth depends highly on the compute nodes to which the RPs are '
          'allocated"',
          (FIG8,), lambda r: min(_balance(r, _axis(r)[-1])) > 1.4),
    Claim("fig8.up_to_sixty_percent", "§5", "yes",
          '"stream merging performs up to 60% better if no busy intermediate nodes are '
          'involved"',
          (FIG8,), lambda r: 1.4 <= balanced_advantage(r, double_buffering=True) <= 1.9),
    Claim("fig8.converge_at_small_buffers", FIG8_SECTION, "yes",
          "the two node selections converge at small buffers",
          (FIG8,), lambda r: all(abs(x - 1) <= 0.15 for x in _balance(r, _axis(r)[0]))),
    Claim("fig8.merging_wants_large_buffers", FIG8_SECTION, "yes",
          '"sending larger but fewer messages is beneficial for stream merging while the '
          'opposite holds for point-to-point"',
          (FIG8,), _merging_wants_large_buffers),
    Claim("fig8.small_buffers_slower_than_p2p", FIG8_SECTION, "yes",
          '"buffers smaller than 10K are much slower for stream merging than for '
          'point-to-point"',
          (FIG8, FIG6),
          lambda fig8, fig6: all(
              merge[KNEE] < 0.6 * p2p[KNEE]
              for merge, p2p in zip(_modes(fig8, balanced=True), _modes(fig6)))),
    Claim("fig8.double_less_than_p2p", FIG8_SECTION, "yes",
          '"the benefit of double buffering is less significant than that of point-to-point"',
          (FIG8, FIG6),
          lambda fig8, fig6: (_double_gain(fig8, _axis(fig8)[-1], balanced=True)
                              < _double_gain(fig6, _axis(fig6)[-1]))),
    Claim("fig15.equal_at_one_stream", FIG15_SECTION, "yes",
          "with one stream, all six queries stream alike",
          (FIG15,), lambda r: _spread(_at(r, q, 1) for q in range(1, 7)) < 1.05),
    Claim("fig15.one_io_node_is_slow", FIG15_SECTION, "yes",
          '(1) Queries 1–4 (one I/O node) "have significantly lower bandwidth than that of '
          'Queries 5 and 6"',
          (FIG15,), lambda r: all(_at(r, q, n) < 0.5 * _at(r, 5, n)
                                  for q in (1, 2, 3, 4) for n in _axis(r) if n >= 3)),
    Claim("fig15.q3_over_q1", FIG15_SECTION, "yes",
          '(2) "Queries 3 and 4 are slightly better than that of Queries 1 and 2": Query 3 '
          "against Query 1",
          (FIG15,), lambda r: _at(r, 3, 2) > 1.05 * _at(r, 1, 2)),
    Claim("fig15.q4_over_q2", FIG15_SECTION, "partly",
          "(2) the same for Query 4 against Query 2",
          (FIG15,), lambda r: all(_at(r, 4, n) >= 0.99 * _at(r, 2, n) for n in (2, 4))),
    Claim("fig15.q5_peak", FIG15_SECTION, "yes",
          '(3) "best streaming bandwidth is achieved for Query 5, which peaks at ~920 Mbps"',
          (FIG15,), _q5_peaks_at_four),
    Claim("fig15.q5_over_q6", FIG15_SECTION, "yes",
          '(3) Query 5 beats Query 6 ("coordination problems in the I/O node when '
          'communicating with many outside nodes")',
          (FIG15,), lambda r: _at(r, 5, 4) > 1.1 * _at(r, 6, 4)),
    Claim("fig15.q1_over_q2", FIG15_SECTION, "yes",
          '(4) "Query 1 is better than that of Query 2" (co-locate back-end RPs)',
          (FIG15,), lambda r: all(_at(r, 1, n) > 1.1 * _at(r, 2, n) for n in _axis(r) if n >= 2)),
    Claim("fig15.dip_at_five", FIG15_SECTION, "yes",
          '(5) "significant performance dip for n=5 ... only four I/O nodes ... compute '
          'nodes have to share I/O nodes"',
          (FIG15,), lambda r: _at(r, 5, 5) < 0.9 * _at(r, 5, 4)),
    Claim("ablations.node_selection", "§5", "yes",
          '"refinements of the node selection algorithm for the BlueGene based on the '
          'results of this paper"',
          (SELECTOR,),
          lambda r: all(improvement(r, n) > 1.5 for n in _axis(r)) and improvement(r, 4) > 5.0),
    Claim("ablations.buffer_by_pattern", "§5", "yes",
          '"the optimal stream buffer size ... was highly dependent on whether point-to-point '
          'or merging stream communication was performed"',
          (BUFFERS,),
          lambda r: (optimal_buffer(r, "p2p") == KNEE and optimal_buffer(r, "merge") >= 10_000
                     and _at(r, "merge", KNEE) < 0.5 * _at(r, "merge", 100_000))),
    Claim("scaling.q5_at_the_uplink", "§5", "yes",
          f"{OPEN_QUESTION}: at 1 Gbps Query 5 stays at the uplink's ceiling",
          (SCALING,), _q5_at_the_uplink),
    Claim("scaling.q6_degrades", "§5", "yes",
          f"{OPEN_QUESTION}: at 1 Gbps spread hosts (Query 6) lose bandwidth",
          (SCALING,), lambda r: _growth(r, 6, 1.0) < 1),
    Claim("scaling.q6_scales", "§5", "yes",
          f"{OPEN_QUESTION}: a 10 Gbps uplink lets Query 6 scale with the I/O nodes",
          (SCALING,), lambda r: _growth(r, 6, 10.0) > 0.8 * _axis(r)[-1] / _axis(r)[0]),
    Claim("scaling.q5_pinned_by_its_nic", "§5", "yes",
          f"{OPEN_QUESTION}: at 10 Gbps Query 5 stays pinned by its one back-end NIC",
          (SCALING,), lambda r: _growth(r, 5, 10.0) < 1.1),
    Claim("multiquery.superposition", MODEL, "yes",
          "k concurrent queries of n streams from one sender into one pset reach the bandwidth "
          "of one query of k·n streams, within 1 %",
          (MULTIQUERY,),
          lambda r: all(abs(p.mean_mbps / _solo(r, k.queries * k.n) - 1) <= 0.01
                        for k, p in r.curve(senders="same", psets="shared") if k.queries > 1)),
    Claim("multiquery.isolation", MODEL, "yes",
          "queries receiving in disjoint psets each keep their solo bandwidth, within 1 %",
          (MULTIQUERY,),
          lambda r: all(abs(query_mbps(p, o.label) / _solo(r, k.n) - 1) <= 0.01
                        for k, p in r.curve(psets="disjoint") for o in p.reports[0].outcomes)),
    Claim("multiquery.distinct_hosts", MODEL, "yes",
          "queries from distinct senders into one pset lose more than 10 % against one sender "
          "(Fig. 15's Query 1 over Query 2, across queries)",
          (MULTIQUERY,),
          lambda r: all(p.mean_mbps < 0.9 * _at(r, k.queries, k.n, "same", "shared")
                        for k, p in r.curve(senders="distinct", psets="shared"))),
)
