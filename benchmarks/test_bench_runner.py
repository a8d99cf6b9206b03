"""Benchmarks for the repro.runner engine: cold compiles vs cache hits.

Times one representative sweep executed through the engine's serial path,
then the same plan served entirely from the on-disk compile cache.  The
cached pass must also perform zero recompiles — the benchmark asserts it.
"""


from repro.store import ArtifactStore
from repro.runner import CompileCache, ParallelExecutor, SweepPlan

PLAN = SweepPlan.cartesian(
    ("cuccaro", "bv"), (8, 12), ("qubit_only", "eqm", "rb")
)


def _header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def test_bench_engine_cold(benchmark):
    results = benchmark.pedantic(
        lambda: ParallelExecutor(workers=1).run(PLAN),
        rounds=1, iterations=1,
    )
    assert len(results) == len(PLAN)


def test_bench_engine_cached(benchmark, tmp_path):
    cache = CompileCache.from_store(ArtifactStore(tmp_path))
    warm = ParallelExecutor(workers=1, cache=cache)
    warm.run(PLAN)  # populate every point

    executor = ParallelExecutor(workers=1, cache=cache)
    results = benchmark.pedantic(lambda: executor.run(PLAN), rounds=1, iterations=1)
    assert executor.last_stats.executed == 0, "cached run must not recompile"
    assert executor.last_stats.cache_hits == len(PLAN)
    assert len(results) == len(PLAN)

    _header("runner cache reuse")
    print(f"plan: {PLAN.describe()}")
    print(f"cache entries: {cache.store.stats().refs} "
          f"({cache.store.size_bytes() / 1024.0:.1f} KiB)")
