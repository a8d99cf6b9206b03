"""Benchmarks for the noise-simulation subsystem.

Times the chunk-batched (vectorised) trajectory samplers — event-only (the
EPS-validation hot path) and state-tracking (the outcome-level hot path) —
against the retained scalar ``_reference`` implementation, and a
cache-served re-run of a chunked shot plan through the executor.  The
vectorised benchmarks record their shot counts in ``extra_info`` so the CI
smoke job can assert minimum shots/s floors straight from the uploaded
pytest-benchmark JSON artifact (``scripts/check_shots_floor.py``).

``test_vectorised_speedup_floor`` is the PR-4 acceptance assertion: the
vectorised event-only path must clear 10x the scalar reference's
throughput on this workload (it measures ~15-20x in practice, so the gate
has headroom).  ``test_tracked_speedup_floor`` is the PR-5 counterpart for
the batched state-tracking path (~20-25x measured).
``test_kernel_speedup_floor`` gates the fused kernel programs
(:mod:`repro.noise.kernel`) on a dim >= 512 register: after asserting
bit-equality with the scalar reference, the fused path must deliver
>= 3x the reference's tracked throughput (measured 6-12x on a 2-core
Xeon VM at dim 4096).
"""

import time

from repro.store import ArtifactStore
from repro.noise import NoiseSpec, TrajectoryEngine, shot_plan
from repro.runner import CompileCache, ParallelExecutor, SweepPoint

POINT = SweepPoint("bv", 8, "eqm")
#: State-tracking benchmark workload: a default validation cell, compiled
#: replayable (single-qubit merging disabled) as tracking requires.
TRACKED_POINT = SweepPoint(
    "qft", 4, "rb", compiler_kwargs=(("merge_single_qubit_gates", False),)
)
#: Large-register tracked workload (register dimension 4096): the regime
#: where per-op gather/scatter passes are memory-bound and the fused
#: kernel's lazy layout and shared rows pay off most.
LARGE_TRACKED_POINT = SweepPoint(
    "bv", 10, "qubit_only", compiler_kwargs=(("merge_single_qubit_gates", False),)
)
TABLE1 = NoiseSpec.from_preset("table1")
#: Shot budget of the vectorised benchmark; at >500k shots/s this is still
#: a sub-100ms benchmark, and large enough to amortise per-run overhead.
SHOTS = 20000
#: Shot budget of the scalar reference benchmark (~30-50k shots/s).
REFERENCE_SHOTS = 1000
#: Shot budget of the batched state-tracking benchmark (~20-40k shots/s).
TRACKED_SHOTS = 4000
#: Shot budget of the scalar tracked reference (~1-2k shots/s).
TRACKED_REFERENCE_SHOTS = 300
#: Minimum vectorised / reference throughput ratio (both engine modes).
SPEEDUP_FLOOR = 10.0
#: Shot budget of the large-register fused benchmark (~6k shots/s).
LARGE_TRACKED_SHOTS = 600
#: Shot budget of the large-register scalar reference (~0.7-1k shots/s).
LARGE_TRACKED_REFERENCE_SHOTS = 300
#: Minimum fused / scalar-reference throughput ratio on the dim >= 512
#: tracked workload (6-12x measured on a 2-core Xeon VM).
KERNEL_SPEEDUP_FLOOR = 3.0
#: Seeds of the pedantic rounds, and of the first best-of-N repeat (repeat
#: ``r`` runs ``FIRST_TIMED_SEED + r``).  Both engine modes share each
#: chunk's stored stream prefix across runs of one seed, and no earlier run
#: in this module uses these seeds, so every timed run draws its streams
#: cold instead of reading a prefix an earlier run stored.
EVENT_ONLY_ROUND_SEED = 101
TRACKED_ROUND_SEED = 102
TRACKED_LARGE_ROUND_SEED = 103
FIRST_TIMED_SEED = 1001


def _shots_per_second(runner, shots: int, repeats: int = 5) -> float:
    """Best-of-N throughput of one engine entry point.

    Each repeat runs its own seed: both engine modes share each chunk's
    stored stream prefix across runs of one seed, and a timed repeat must
    measure stream generation, not prefix reads.
    """
    best = float("inf")
    for repeat in range(repeats):
        start = time.perf_counter()
        runner(shots, seed=FIRST_TIMED_SEED + repeat)
        best = min(best, time.perf_counter() - start)
    return shots / best


def test_bench_trajectories_event_only(benchmark):
    compiled = POINT.execute().compiled
    engine = TrajectoryEngine(compiled, TABLE1)
    benchmark.extra_info["shots"] = SHOTS
    benchmark.extra_info["engine"] = "vectorised"
    chunk = benchmark.pedantic(
        lambda: engine.run(SHOTS, seed=EVENT_ONLY_ROUND_SEED), rounds=1, iterations=1
    )
    assert chunk.shots == SHOTS
    assert 0 < chunk.no_error_shots < SHOTS


def test_bench_trajectories_reference(benchmark):
    compiled = POINT.execute().compiled
    engine = TrajectoryEngine(compiled, TABLE1)
    benchmark.extra_info["shots"] = REFERENCE_SHOTS
    benchmark.extra_info["engine"] = "reference"
    chunk = benchmark.pedantic(
        lambda: engine.run_reference(REFERENCE_SHOTS, seed=0), rounds=1, iterations=1
    )
    assert chunk.shots == REFERENCE_SHOTS


def test_vectorised_speedup_floor():
    """PR-4 acceptance: >=10x event-only shots/s over the scalar reference.

    Best-of-5 on both sides keeps shared-runner noise out of the ratio;
    the measured margin (~23x locally) leaves the 10x floor plenty of
    headroom against CPU steal on a loaded CI machine.
    """
    compiled = POINT.execute().compiled
    engine = TrajectoryEngine(compiled, TABLE1)
    # equivalence first, so a fast-but-wrong engine can never pass the gate
    assert engine.run(REFERENCE_SHOTS, seed=0) == engine.run_reference(
        REFERENCE_SHOTS, seed=0
    )
    reference_rate = _shots_per_second(engine.run_reference, REFERENCE_SHOTS)
    vectorised_rate = _shots_per_second(engine.run, SHOTS)
    assert vectorised_rate >= SPEEDUP_FLOOR * reference_rate, (
        f"vectorised path delivers {vectorised_rate:,.0f} shots/s vs "
        f"{reference_rate:,.0f} reference — below the {SPEEDUP_FLOOR:.0f}x floor"
    )


def test_bench_trajectories_tracked(benchmark):
    compiled = TRACKED_POINT.execute().compiled
    engine = TrajectoryEngine(compiled, TABLE1, track_state=True)
    benchmark.extra_info["shots"] = TRACKED_SHOTS
    benchmark.extra_info["engine"] = "tracked"
    chunk = benchmark.pedantic(
        lambda: engine.run(TRACKED_SHOTS, seed=TRACKED_ROUND_SEED), rounds=1, iterations=1
    )
    assert chunk.shots == TRACKED_SHOTS
    assert chunk.tracked
    assert 0 < chunk.no_error_shots < TRACKED_SHOTS


def test_bench_trajectories_tracked_reference(benchmark):
    compiled = TRACKED_POINT.execute().compiled
    engine = TrajectoryEngine(compiled, TABLE1, track_state=True)
    benchmark.extra_info["shots"] = TRACKED_REFERENCE_SHOTS
    benchmark.extra_info["engine"] = "tracked_reference"
    chunk = benchmark.pedantic(
        lambda: engine.run_reference(TRACKED_REFERENCE_SHOTS, seed=0),
        rounds=1, iterations=1,
    )
    assert chunk.shots == TRACKED_REFERENCE_SHOTS


def test_tracked_speedup_floor():
    """PR-5 acceptance: >=10x tracked shots/s over the scalar reference.

    Same shape as the event-only gate: equivalence first (a fast-but-wrong
    engine can never pass), then best-of-5 on both sides.  Measured ~20-25x
    locally, leaving the 10x floor headroom against loaded CI runners.
    """
    compiled = TRACKED_POINT.execute().compiled
    engine = TrajectoryEngine(compiled, TABLE1, track_state=True)
    assert engine.run(TRACKED_REFERENCE_SHOTS, seed=0) == engine.run_reference(
        TRACKED_REFERENCE_SHOTS, seed=0
    )
    reference_rate = _shots_per_second(engine.run_reference, TRACKED_REFERENCE_SHOTS)
    tracked_rate = _shots_per_second(engine.run, TRACKED_SHOTS)
    assert tracked_rate >= SPEEDUP_FLOOR * reference_rate, (
        f"batched tracked path delivers {tracked_rate:,.0f} shots/s vs "
        f"{reference_rate:,.0f} reference — below the {SPEEDUP_FLOOR:.0f}x floor"
    )


def test_bench_trajectories_tracked_large(benchmark):
    compiled = LARGE_TRACKED_POINT.execute().compiled
    engine = TrajectoryEngine(compiled, TABLE1, track_state=True)
    assert engine.dimension >= 512, "the large-register benchmark lost its point"
    benchmark.extra_info["shots"] = LARGE_TRACKED_SHOTS
    benchmark.extra_info["engine"] = "tracked_large"
    chunk = benchmark.pedantic(
        lambda: engine.run(LARGE_TRACKED_SHOTS, seed=TRACKED_LARGE_ROUND_SEED),
        rounds=1, iterations=1,
    )
    assert chunk.shots == LARGE_TRACKED_SHOTS
    assert chunk.tracked


def test_kernel_speedup_floor():
    """>=3x fused tracked shots/s over the scalar reference at dim >= 512.

    Equivalence asserted first, so a fast-but-wrong kernel can never
    pass; best-of-3 on both sides keeps shared-runner noise out of the
    ratio.  Measured 6-12x on a 2-core Xeon VM at dim 4096.
    """
    compiled = LARGE_TRACKED_POINT.execute().compiled
    engine = TrajectoryEngine(compiled, TABLE1, track_state=True)
    assert engine.dimension >= 512
    assert engine.run(120, seed=0) == engine.run_reference(120, seed=0)
    reference_rate = _shots_per_second(
        engine.run_reference, LARGE_TRACKED_REFERENCE_SHOTS, repeats=3
    )
    fused_rate = _shots_per_second(engine.run, LARGE_TRACKED_SHOTS, repeats=3)
    assert fused_rate >= KERNEL_SPEEDUP_FLOOR * reference_rate, (
        f"fused kernel path delivers {fused_rate:,.0f} shots/s vs "
        f"{reference_rate:,.0f} reference — below the "
        f"{KERNEL_SPEEDUP_FLOOR:.1f}x floor at dim {engine.dimension}"
    )


def test_bench_shot_plan_cached(benchmark, tmp_path):
    cache = CompileCache.from_store(ArtifactStore(tmp_path))
    plan = shot_plan(POINT, TABLE1, shots=SHOTS, seed=0, chunk_size=2500)
    ParallelExecutor(workers=1, cache=cache).run(plan)  # populate

    executor = ParallelExecutor(workers=1, cache=cache)
    chunks = benchmark.pedantic(lambda: executor.run(plan), rounds=1, iterations=1)
    assert executor.last_stats.executed == 0, "cached run must not resimulate"
    assert sum(chunk.shots for chunk in chunks) == SHOTS
