"""The worker that executes one plan point, and the workload builders it calls.

The point and result values live in :mod:`repro.runner.records`, which the
store, the spool and content keys read without loading any of this
module's compute imports.  They are re-exported here because blobs written
before that split name them under this module.
"""

from __future__ import annotations

# the default backend, which nearly every point runs on, loads with the
# worker instead of inside its first point
import repro.backends.trajectory  # noqa: F401
from repro.runner.records import ensure_execution_point
from repro.runner.records import DeviceSpec, StrategyResult, SweepPoint  # noqa: F401  (older blobs)
from repro.workloads.registry import build_benchmark  # noqa: F401  (SweepPoint.build_circuit)


def execute_point(point) -> object:
    """Execute one plan point.

    This is the process-pool worker: it takes only a picklable
    :class:`ExecutionPoint` and calls its ``execute()`` method, which
    reconstructs everything deterministically so the serial and parallel
    paths produce bit-identical results.  Compile requests
    (:class:`SweepPoint`) and noisy shot batches
    (:class:`repro.noise.points.NoisePoint`) both conform; anything that
    does not raises the protocol's ``TypeError`` before dispatch.
    """
    ensure_execution_point(point)
    return point.execute()
