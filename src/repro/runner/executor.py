"""Serial and process-parallel execution of sweep plans.

Determinism contract: results always come back in plan order and are
**byte-identical** at every worker count and chunk size.  This holds
because each worker rebuilds its point from the pickled spec and executes
it with no shared mutable state — ``workers=1`` is the reference path and
``workers>1`` is purely a wall-clock optimisation, which
``tests/test_runner.py`` pins by comparing serial and parallel reports.
When a :class:`~repro.runner.cache.CompileCache` is attached, cache hits
are redeemed from the artifact store and only the misses are dispatched;
the merged result list is indistinguishable from an uncached run.  A
replay miss is never dispatched: it raises ``ReplayMissError`` naming the
attached store (:func:`~repro.runner.cache.refuse_store_miss`).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.runner.cache import CompileCache, refuse_store_miss
from repro.runner.plan import SweepPlan
from repro.runner.points import execute_point
from repro.runner.records import SweepPoint


@dataclass
class ExecutionStats:
    """What one :meth:`ParallelExecutor.run` call actually did."""

    total_points: int = 0
    cache_hits: int = 0
    executed: int = 0


@dataclass
class ParallelExecutor:
    """Run sweep plans across processes with optional result caching.

    ``workers=1`` executes points inline in plan order — the reproducibility
    reference path.  ``workers>1`` fans misses out over a
    :class:`~concurrent.futures.ProcessPoolExecutor` in chunks; because every
    point is rebuilt deterministically from its spec, the parallel results are
    identical to the serial ones, and ``run`` always returns them in plan
    order regardless of completion order.
    """

    workers: int = 1
    cache: CompileCache | None = None
    last_stats: ExecutionStats = field(default_factory=ExecutionStats)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, plan: SweepPlan | Iterable[SweepPoint]) -> list:
        """Execute every point and return results in plan order.

        Points are any values with ``execute()``/``payload()`` — compiled
        sweep points yield :class:`StrategyResult`, noise shot batches yield
        :class:`~repro.noise.result.NoisyResult`.
        """
        points = list(plan)
        results: list = [None] * len(points)
        pending: list[int] = []
        for index, point in enumerate(points):
            cached = self.cache.get(point) if self.cache is not None else None
            if cached is not None:
                results[index] = cached
                continue
            if self.cache is not None:
                refuse_store_miss(point, self.cache.root)
            pending.append(index)
        if pending:
            computed = self._execute([points[index] for index in pending])
            for index, result in zip(pending, computed):
                results[index] = result
                if self.cache is not None:
                    self.cache.put(points[index], result)
        self.last_stats = ExecutionStats(
            total_points=len(points),
            cache_hits=len(points) - len(pending),
            executed=len(pending),
        )
        return results

    #: Cap on the dispatch chunk, which gives every worker ~4 chunks for
    #: load balancing: huge plans (tens of thousands of shot chunks) would
    #: otherwise serialise into a handful of giant worker tasks, losing
    #: load balancing and delaying cache writes until the end of the run.
    MAX_AUTO_CHUNKSIZE = 64

    def _execute(self, points: Sequence[SweepPoint]) -> list:
        workers = min(self.workers, len(points))
        if workers <= 1:
            return [execute_point(point) for point in points]
        chunksize = min(self.MAX_AUTO_CHUNKSIZE, max(1, len(points) // (workers * 4)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map preserves input order, so plan order survives the fan-out.
            return list(pool.map(execute_point, points, chunksize=chunksize))


def execute_plan(
    plan: SweepPlan | Iterable[SweepPoint],
    workers: int = 1,
    cache: CompileCache | None = None,
) -> list:
    """One-shot convenience wrapper around :class:`ParallelExecutor`."""
    return ParallelExecutor(workers=workers, cache=cache).run(plan)
