"""The workers that execute plan points, and the workload builders they call.

The point and result values live in :mod:`repro.runner.records`, which the
store, the spool and content keys read without loading any of this
module's compute imports.  They are re-exported here because blobs written
before that split name them under this module.
"""

from __future__ import annotations

# the default backend, which nearly every point runs on, loads with the
# worker instead of inside its first point
import repro.backends.trajectory  # noqa: F401
from repro.runner.records import ensure_execution_point, run_grouped
from repro.runner.records import DeviceSpec, StrategyResult, SweepPoint  # noqa: F401  (older blobs)
from repro.workloads.registry import build_benchmark  # noqa: F401  (SweepPoint.build_circuit)


def execute_point(point) -> object:
    """Execute one plan point.

    It takes only a picklable :class:`ExecutionPoint` and calls its
    ``execute()`` method, which reconstructs everything deterministically
    so the serial and parallel paths produce bit-identical results; the
    executor runs points through :func:`execute_points`.  Compile requests
    (:class:`SweepPoint`) and noisy shot batches
    (:class:`repro.noise.points.NoisePoint`) both conform; anything that
    does not raises the protocol's ``TypeError`` before dispatch.
    """
    ensure_execution_point(point)
    return point.execute()


def _execute_each(points: list) -> list:
    return [point.execute() for point in points]


def execute_points(points) -> list:
    """Execute a contiguous run of plan points; their results, in order.

    The process-pool worker body.  A point whose class defines
    ``execute_batch(points)`` goes to it with the run's other points of
    that class, which may share work among them
    (:meth:`repro.noise.points.NoisePoint.execute_batch`); any other point
    runs alone through ``execute()``.  Each result is the one the point's
    own ``execute()`` returns, bit for bit.
    """
    points = list(points)
    for point in points:
        ensure_execution_point(point)

    def batch_of(point):
        return getattr(type(point), "execute_batch", _execute_each)

    return run_grouped(points, batch_of, lambda group: batch_of(group[0])(group))
