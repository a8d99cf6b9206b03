"""Parallel sweep execution engine with compile-result caching.

The runner turns the evaluation layer's nested for-loops into three explicit
pieces:

* :class:`SweepPlan` — declarative enumeration of
  ``(benchmark, num_qubits, strategy, device, seed)`` points,
* :class:`ParallelExecutor` — serial (``workers=1``) or process-parallel
  execution with deterministic, plan-ordered results,
* :class:`CompileCache` — content keying (:func:`point_key`) over the
  content-addressed :class:`~repro.store.ArtifactStore`, so repeated
  sweeps (and experiments sharing points) never recompile the same
  circuit twice.

A plan point is any picklable value satisfying the :class:`ExecutionPoint`
protocol (``key()``, ``payload()``, ``execute()``): compile requests
(:class:`SweepPoint`, including content-keyed external QASM programs via
:meth:`SweepPoint.from_qasm`) and the noise subsystem's shot batches
(:class:`repro.noise.points.NoisePoint`) share the same executor and
cache.  Points carry a ``backend`` name resolved through
:mod:`repro.backends`, so the same plan can run on the trajectory engine,
be served purely from the store (``replay``) or cross-checked on an
independent simulator (``external-sim``).

Typical use::

    from repro.runner import CompileCache, ParallelExecutor, SweepPlan
    from repro.store import ArtifactStore

    plan = SweepPlan.cartesian(("cuccaro", "cnu"), (8, 12), ("qubit_only", "eqm"))
    cache = CompileCache.from_store(ArtifactStore(".repro_cache"))
    executor = ParallelExecutor(workers=4, cache=cache)
    results = executor.run(plan)          # list[StrategyResult], plan order
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".cache": ("CACHE_SCHEMA_VERSION", "CacheStats", "CompileCache", "code_fingerprint",
               "point_key"),
    "repro.store.artifacts": ("CACHE_DIR_ENV", "default_cache_dir"),
    ".executor": ("ExecutionStats", "ParallelExecutor", "execute_plan"),
    ".plan": ("SweepPlan",),
    ".records": ("DEFAULT_BACKEND", "DeviceSpec", "ExecutionPoint", "StrategyResult",
                 "SweepPoint", "ensure_execution_point", "freeze_kwargs", "make_device"),
    ".points": ("execute_point",),
})
