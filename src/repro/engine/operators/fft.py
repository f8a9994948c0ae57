"""FFT operators for the paper's radix2 parallelization example.

The paper (section 2.4) parallelizes a streaming FFT with the radix-2
decimation-in-time identity: for an N-point input x with even part E =
FFT(x[0::2]) and odd part O = FFT(x[1::2]),

    X[k]        = E[k] + w^k O[k]
    X[k + N/2]  = E[k] - w^k O[k],      w = exp(-2*pi*i/N)

``fft()`` computes a partial FFT on each (tagged) array; ``radixcombine()``
pairs the odd/even partial results by sequence number after the merge and
applies the butterfly.  Results are verified against ``numpy.fft.fft`` in
the test suite and the ``radix_fft`` example.

CPU cost is modelled as ``fft_cycles_per_butterfly * N log2 N`` cycles on
the 700 MHz baseline CPU.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict

from repro.engine.objects import END_OF_STREAM, TaggedObject
from repro.engine.operators.base import Operator
from repro.engine.operators.transforms import _as_array
from repro.util.errors import QueryExecutionError

if TYPE_CHECKING:
    import numpy as np

#: Modelled CPU cycles per FFT point per log2 level (PPC440 baseline).
FFT_CYCLES_PER_POINT_LEVEL = 8.0
_BASELINE_CLOCK_HZ = 700e6


def fft_cost_seconds(n_points: int) -> float:
    """Baseline CPU seconds to FFT ``n_points`` complex points."""
    if n_points < 2:
        return 1.0 / _BASELINE_CLOCK_HZ
    return (
        FFT_CYCLES_PER_POINT_LEVEL * n_points * math.log2(n_points) / _BASELINE_CLOCK_HZ
    )


class Fft(Operator):
    """``fft(s)``: FFT of every array in the stream (tags preserved)."""

    name = "fft"
    arity = (1, 1)

    def run(self):
        import numpy as np

        while True:
            obj = yield from self.next_object()
            if obj is END_OF_STREAM:
                break
            array = _as_array(obj, self.name)
            yield from self.ctx.charge_cpu(fft_cost_seconds(len(array)))
            result = np.fft.fft(array)
            if isinstance(obj, TaggedObject):
                result = TaggedObject(tag=obj.tag, sequence=obj.sequence, payload=result)
            yield from self.emit(result)
        yield from self.finish()


class RadixCombine(Operator):
    """``radixcombine(s)``: butterfly-combine paired odd/even partial FFTs.

    The input is the merged stream of tagged partial results; pairs are
    matched by sequence number, so arrival interleaving does not matter.
    """

    name = "radixcombine"
    arity = (1, 1)

    def run(self):
        pending: Dict[int, Dict[str, np.ndarray]] = {}
        while True:
            obj = yield from self.next_object()
            if obj is END_OF_STREAM:
                break
            if not isinstance(obj, TaggedObject) or obj.tag not in ("odd", "even"):
                raise QueryExecutionError(
                    f"radixcombine() needs odd/even tagged partial FFTs, got {obj!r}"
                )
            halves = pending.setdefault(obj.sequence, {})
            if obj.tag in halves:
                raise QueryExecutionError(
                    f"radixcombine() saw two {obj.tag!r} halves for sequence {obj.sequence}"
                )
            halves[obj.tag] = obj.payload
            if len(halves) == 2:
                del pending[obj.sequence]
                combined = self._butterfly(halves["even"], halves["odd"])
                yield from self.ctx.charge_cpu(fft_cost_seconds(len(combined)))
                yield from self.emit(combined)
        if pending:
            raise QueryExecutionError(
                f"radixcombine() ended with {len(pending)} unpaired partial FFTs"
            )
        yield from self.finish()

    @staticmethod
    def _butterfly(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
        if len(even) != len(odd):
            raise QueryExecutionError(
                f"radixcombine() halves differ in length: {len(even)} vs {len(odd)}"
            )
        import numpy as np

        half = len(even)
        twiddle = np.exp(-2j * np.pi * np.arange(half) / (2 * half))
        spun = twiddle * odd
        return np.concatenate([even + spun, even - spun])
