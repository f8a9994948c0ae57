"""Signal generators for the radix2 FFT example.

The paper's radix2 query function consumes "a stream of 1D arrays of signal
data" from a receiver.  These factories produce deterministic synthetic
signals — mixtures of sinusoids plus seeded noise — suitable for verifying
the parallel FFT against ``numpy.fft.fft``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple

from repro.util.errors import QueryExecutionError

if TYPE_CHECKING:
    import numpy as np


def sinusoid_mixture(
    n_points: int,
    tones: Sequence[Tuple[float, float]],
    noise: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """One signal array: a sum of (frequency-bin, amplitude) tones + noise.

    Frequencies are expressed as FFT bin numbers, so a tone at bin k shows
    up as a spike at index k of the FFT — handy for assertions.
    """
    if n_points < 2 or n_points & (n_points - 1):
        raise QueryExecutionError(f"signal length must be a power of two >= 2, got {n_points}")
    import numpy as np

    t = np.arange(n_points)
    signal = np.zeros(n_points, dtype=float)
    for bin_number, amplitude in tones:
        signal += amplitude * np.cos(2 * np.pi * bin_number * t / n_points)
    if noise:
        rng = np.random.default_rng(seed)
        signal += noise * rng.standard_normal(n_points)
    return signal


def signal_stream(count: int, n_points: int = 1024, seed: int = 0) -> List[np.ndarray]:
    """A finite stream of ``count`` signal arrays with varying tone content
    and noise of standard deviation 0.05.

    ``count=0`` is a valid (empty) stream — a query over it must still
    terminate cleanly on the end-of-stream marker alone.
    """
    if count < 0:
        raise QueryExecutionError(f"signal count must be >= 0, got {count}")
    arrays = []
    for k in range(count):
        tones = [(1 + (k % (n_points // 4)), 1.0), (n_points // 8, 0.5)]
        arrays.append(
            sinusoid_mixture(n_points, tones, noise=0.05, seed=seed + k)
        )
    return arrays


def make_signal_source(count: int, n_points: int = 1024, seed: int = 0):
    """Zero-argument factory of an external source (``receiver(name)``).

    The stream is built once, here; every ``factory()`` call returns a
    fresh iterator over those same arrays, so each deployment of a query
    (a solo baseline, a concurrent run, a post-fault replacement) replays
    identical data without synthesizing it again.  The arrays are marked
    read-only: an operator must not mutate its input, and one that tries
    raises ``ValueError`` instead of corrupting the next replay.
    """
    arrays = signal_stream(count, n_points=n_points, seed=seed)
    for array in arrays:
        array.setflags(write=False)

    def factory() -> Iterator[np.ndarray]:
        return iter(arrays)

    return factory
