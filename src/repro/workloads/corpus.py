"""Synthetic text corpus for the distributed grep (mapreduce) example.

The paper's mapreduce query greps "a pattern on the i-th filename in a
table" across 1000 parallel processes.  We have no such file table, so this
module generates a deterministic synthetic corpus: ``filename(i)`` names a
virtual file whose lines are generated pseudo-randomly from a seed derived
from the file name.  A known marker pattern is planted on a deterministic
subset of lines so example and test results are checkable.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import List, Tuple

from repro.util.errors import QueryExecutionError

#: Pattern planted in the corpus; greps for this have verifiable counts.
MARKER = "NEEDLE"

_WORDS = (
    "antenna", "baseline", "beam", "channel", "correlator", "dipole",
    "fringe", "gain", "image", "jansky", "kelvin", "lobe", "noise",
    "pulsar", "quasar", "receiver", "spectrum", "telescope", "uvplane",
    "visibility",
)

_DEFAULT_LINES = 200
_MARKER_EVERY = 17  # plant the marker on every 17th line

#: Most generated files the process keeps.  A file of the default 200
#: lines holds about 27 kB of strings, so the memo holds at most about
#: 7 MB (a caller that asks for longer files holds proportionally more);
#: 256 files cover 21 concurrent grep streams of the default deck scale.
_MEMO_FILES = 256


def filename(i: int) -> str:
    """The i-th filename of the corpus table (the paper's ``filename(i)``)."""
    return f"stream-log-{int(i):04d}.txt"


def read_file(name: str, lines: int = _DEFAULT_LINES) -> List[str]:
    """The lines of a corpus file, generated deterministically from its name.

    A file is generated once per ``(name, lines)`` and then replayed from
    a bounded process-wide memo (the last 256 files read); every call returns
    a fresh list, so a caller may mutate what it gets without changing
    the next call's result.

    Raises:
        QueryExecutionError: If ``name`` is not a corpus filename.
    """
    if not name.startswith("stream-log-") or not name.endswith(".txt"):
        raise QueryExecutionError(f"unknown corpus file {name!r}")
    if lines < 0:
        raise QueryExecutionError(f"line count must be >= 0, got {lines}")
    return list(_generate(name, lines))


@lru_cache(maxsize=_MEMO_FILES)
def _generate(name: str, lines: int) -> Tuple[str, ...]:
    """The lines of one corpus file: a pure function of its name."""
    rng = random.Random(name)
    result = []
    for line_no in range(lines):
        words = rng.choices(_WORDS, k=rng.randint(4, 10))
        if line_no % _MARKER_EVERY == 0:
            words.insert(rng.randrange(len(words) + 1), MARKER)
        result.append(f"{name}:{line_no}: " + " ".join(words))
    return tuple(result)


def expected_marker_count(lines: int = _DEFAULT_LINES) -> int:
    """How many lines of one corpus file contain :data:`MARKER`."""
    return (lines + _MARKER_EVERY - 1) // _MARKER_EVERY
