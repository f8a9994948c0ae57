"""First-class stream-process values of the SCSQL evaluator.

"The function sp(s, c) assigns the subquery s to a new stream process to be
run in cluster c" and returns a handle; ``spv`` returns "a set (bag) of
handles to the assigned stream processes" (paper section 2.4).  These
handle objects are what SCSQL variables of type ``sp`` / ``bag of sp`` are
bound to during query compilation, and what ``extract()`` / ``merge()``
consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.util.frozen import slot_init


@slot_init
@dataclass(frozen=True, slots=True)
class SPHandle:
    """A handle to one assigned stream process."""

    sp_id: str

    def __str__(self) -> str:
        return self.sp_id


@dataclass(frozen=True)
class SPVHandle:
    """A bag of handles to parallel stream processes (the result of spv)."""

    handles: Tuple[SPHandle, ...]

    def __iter__(self) -> Iterator[SPHandle]:
        return iter(self.handles)

    def __len__(self) -> int:
        return len(self.handles)

    def __str__(self) -> str:
        return "{" + ", ".join(str(h) for h in self.handles) + "}"
