"""Per-query execution settings.

These are the knobs the paper's experiments turn: the MPI stream buffer
size and single vs double buffering (section 3.1: "Different buffer
settings for MPI streams inside the BlueGene are evaluated.  Furthermore,
explicit node selections are used...").  TCP streams ignore the buffer-size
knob — "we rely on the buffering of the TCP stack" (section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import SimulationError


@dataclass(frozen=True)
class ExecutionSettings:
    """Engine-level settings for one continuous query execution."""

    mpi_buffer_bytes: int = 1000
    """Send/receive buffer size used by MPI stream carriers (Figure 6/8 sweep)."""

    double_buffering: bool = True
    """Two buffers per driver (overlap) versus one (strict alternation)."""

    flush_interval: float = 5e-3
    """Sender drivers flush a partially filled send buffer after this much
    simulated idle time, so low-rate result streams (e.g. one aggregate per
    window) reach their subscribers promptly in continuous queries."""

    def __post_init__(self):
        if self.mpi_buffer_bytes < 1:
            raise SimulationError(
                f"mpi_buffer_bytes must be positive, got {self.mpi_buffer_bytes}"
            )
        if self.flush_interval <= 0:
            raise SimulationError(
                f"flush_interval must be positive, got {self.flush_interval}"
            )

    @property
    def driver_slots(self) -> int:
        """Number of driver buffers implied by the buffering mode."""
        return 2 if self.double_buffering else 1
