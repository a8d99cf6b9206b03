"""Default cells and backends of the validation and crosscheck runs.

Kept apart from the runs themselves so the CLI can print them without
loading the noise stack.
"""

from __future__ import annotations

#: Default validation set: small instances of a local, a dense and a
#: GHZ-style workload — big enough to exercise compression, small enough
#: that the default shot budget per cell stays fast.
DEFAULT_VALIDATION_BENCHMARKS: tuple[str, ...] = ("bv", "ghz", "qft")

#: Default Monte Carlo budget per cell.  Raised from 2000 when the
#: event-only trajectory path was vectorised: at >10x the shot
#: throughput, 8000 shots per cell cost less wall-clock than 2000 used
#: to, and halve the Wilson interval width.
DEFAULT_VALIDATION_SHOTS = 8000
DEFAULT_VALIDATION_SIZES: tuple[int, ...] = (4, 6)
DEFAULT_VALIDATION_STRATEGIES: tuple[str, ...] = (
    "qubit_only", "fq", "eqm", "rb", "awe", "pp",
)

#: Backends compared when the caller does not choose.
DEFAULT_CROSSCHECK_BACKENDS: tuple[str, ...] = ("trajectory", "external-sim")
