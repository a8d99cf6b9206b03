"""Noisy shot batches as sweep-plan points.

A :class:`NoisePoint` is one chunk of Monte Carlo shots for one compiled
circuit under one noise spec — frozen, picklable and content-keyed, so shot
batches fan out through the existing :class:`~repro.runner.ParallelExecutor`
and land in the same on-disk cache as compile results.  Because every shot's
RNG stream depends only on ``(seed, absolute shot index)``, the chunked
results merge into a :class:`~repro.noise.result.NoisyResult` that is
bit-identical whatever the worker count or chunk size.  The executor runs
its noise points through :meth:`NoisePoint.execute_batch`, so chunks over
one shot span can share one pass over its streams.

The compile request itself is carried declaratively (a
:class:`~repro.runner.SweepPoint`); workers rebuild the compiled circuit on
first use and keep it in the backend's per-process compile memo, so a
thousand chunks of the same circuit compile it once per worker.
:func:`simulate_plan` is the one driver from compile points to merged
shots: it compiles a plan, puts each result into its backend's compile
memo, and runs every point's chunks as one combined plan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.backends.registry import get_backend
from repro.noise.model import NoiseSpec
from repro.noise.result import NoisyResult
from repro.runner import cache as runner_cache
from repro.runner.cache import CompileCache
from repro.runner.executor import execute_plan
from repro.runner.plan import SweepPlan
from repro.runner.records import StrategyResult, SweepPoint, run_grouped

#: Default shots per plan point.  Sized for the chunk-batched vectorised
#: engine: thousands of shots per chunk amortise the per-chunk overhead
#: (compile memo lookup, pickling) to nothing and keep each chunk inside
#: one vectorised block (:data:`repro.noise.trajectory.EVENT_BLOCK_SHOTS`),
#: while staying small enough that multi-cell plans load-balance a pool.
#: Raised from 500 when the event-only path was vectorised (PR 4).
DEFAULT_CHUNK_SIZE = 4096


@dataclass(frozen=True)
class NoisePoint:
    """One seeded batch of noisy trajectories for one compiled circuit."""

    compile_point: SweepPoint
    noise: NoiseSpec
    shots: int
    base_shot: int = 0
    seed: int = 0
    track_state: bool = False

    def payload(self) -> dict:
        """JSON-serialisable representation used for cache keying."""
        return {
            "kind": "noise_shots",
            "compile": self.compile_point.payload(),
            "noise": self.noise.payload(),
            "shots": self.shots,
            "base_shot": self.base_shot,
            "seed": self.seed,
            "track_state": self.track_state,
        }

    @property
    def backend(self) -> str:
        """The execution backend this chunk runs on (the compile point's)."""
        return self.compile_point.backend

    def key(self) -> str:
        """Stable content digest (see :func:`~repro.runner.cache.point_key`)."""
        return runner_cache.point_key(self)

    def execute(self) -> NoisyResult:
        """Run this batch of trajectories (the process-pool worker body).

        Dispatches to the compile point's backend; each chunk comes back as
        a contract-validated :class:`NoisyResult` whose counters
        :meth:`NoisyResult.from_chunks` merges bit-identically at any chunk
        split.
        """
        return get_backend(self.backend).run_noise_point(self)

    @staticmethod
    def execute_batch(points: list[NoisePoint]) -> list[NoisyResult]:
        """Run several chunks; each result equals its own :meth:`execute`.

        Each backend's chunks go to its
        :meth:`~repro.backends.contract.ExecutionBackend.run_noise_points`
        in one call.
        """
        return run_grouped(
            points, lambda point: point.backend,
            lambda group: get_backend(group[0].backend).run_noise_points(group),
        )


def shot_plan(
    compile_point: SweepPoint,
    noise: NoiseSpec,
    shots: int,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    track_state: bool = False,
) -> SweepPlan:
    """Split ``shots`` into chunked :class:`NoisePoint` plan entries.

    ``shots=0`` is a valid degenerate request and yields an empty plan
    (which merges into the zero-shot :class:`NoisyResult`).
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    return SweepPlan(tuple(
        NoisePoint(compile_point, noise, shots=min(chunk_size, shots - base),
                   base_shot=base, seed=seed, track_state=track_state)
        for base in range(0, shots, chunk_size)
    ))


def simulate_plan(
    plan: SweepPlan,
    noise: NoiseSpec,
    shots: int,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    track_state: bool = False,
    workers: int = 1,
    cache: CompileCache | None = None,
) -> list[tuple[StrategyResult, NoisyResult]]:
    """Compile every point of ``plan``, then merge its noisy shot chunks.

    Each compile result (fresh or store-served) goes into its backend's
    compile memo, so in-process chunks never compile again; the chunks of
    every point run as one plan and merge in plan order, bit-identically
    at any worker count.  Returns ``(compile result, shots)`` per point.
    """
    results = execute_plan(plan, workers=workers, cache=cache)
    for point, result in zip(plan, results):
        compiles = get_backend(point.backend).compiles
        if compiles.get(point) is None:
            compiles.put(point, result)
    shot_plans = [
        shot_plan(point, noise, shots, seed=seed, chunk_size=chunk_size,
                  track_state=track_state)
        for point in plan
    ]
    chunks = execute_plan(
        SweepPlan(tuple(chunk for cell in shot_plans for chunk in cell)),
        workers=workers, cache=cache,
    )
    pairs = []
    offset = 0
    for result, cell in zip(results, shot_plans):
        merged = NoisyResult.from_chunks(chunks[offset:offset + len(cell)], seed)
        offset += len(cell)
        if not cell and track_state:
            # a zero-shot plan has no chunks to vote on trackedness; preserve
            # the request so the zero-shot outcome estimators raise instead of
            # answering None ("not a tracked run")
            merged = replace(merged, tracked=True)
        pairs.append((result, merged))
    return pairs
