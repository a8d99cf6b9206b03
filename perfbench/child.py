"""One fresh-process workload run; ``run.py`` starts it and reads its last line.

Usage: ``python3 perfbench/child.py '<json spec>'`` with ``src`` on
``PYTHONPATH``.  The spec names the workload, seed, store directory, work
directory, whether to trace, and the ``time.monotonic()`` reading taken
just before the process was spawned, so ``setup_s`` covers interpreter
start, ``import repro.cli`` and opening the store.  Only the standard
library is imported before the clock is read back.  :func:`speed_probe`
runs before the first lap and after each lap of the workload; ``probe_s``
is the mean of those times.

``"mode": "warm"`` compiles the sweep into the store instead (spool-replay's
untimed preparation) and records the cold blob digests.
"""

import json
import sys
import time


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libraries = sorted({
                line.split()[-1] for line in maps
                if "openblas" in line.lower() and line.split()[-1].startswith("/")
            })
    except OSError:  # no procfs: not Linux
        return None
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def speed_probe() -> float:
    """Seconds a fixed routine takes now: the machine's current speed.

    Half interpreter work (dict updates, string sorting), as in compiling,
    and half NumPy work (seeded draws, a sort and element-wise arithmetic
    on 1.6 MB arrays), as in shot sampling, so it slows as the workloads
    do when other tenants take the host's cores, caches and memory
    bandwidth.  It calls no BLAS and nothing in ``repro``, so no change to
    the program can move it.
    """
    import numpy

    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(120_000):
        counts[i % 977] = counts.get(i % 977, 0) + i * 3 // 7
    sorted(str(count) for count in counts.values())
    rng = numpy.random.default_rng(1)
    for _ in range(6):
        values = rng.random(200_000)
        values.sort()
        (values * 3.0 + 1.0).sum()
    return time.perf_counter() - start


def main() -> int:
    spec = json.loads(sys.argv[1])
    import repro.cli  # noqa: F401  (what every CLI call imports)
    from repro.store import ArtifactStore

    store = ArtifactStore(spec["store"])
    setup_s = time.monotonic() - spec["spawned"]

    import resource
    from pathlib import Path

    import workloads

    work = Path(spec["work"])
    if spec.get("mode") == "warm":
        cold = workloads.warm_store(spec["seed"], store)
        print(json.dumps({"cold": cold}))
        return 0

    cold = json.loads(Path(spec["cold"]).read_text()) if spec.get("cold") else None
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec["run_id"])
    probes = [speed_probe()]
    origin = time.perf_counter()
    outcome = workloads.run(spec["workload"], spec["seed"], store, work, tracer, cold,
                            verify=spec.get("verify", True),
                            after_lap=lambda: probes.append(speed_probe()))

    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "probe_s": sum(probes) / len(probes),
        "run_s": outcome.wall_s,
        "laps": outcome.laps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": outcome.digest,
        "quality": outcome.quality,
        "failures": outcome.failures,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer, outcome.wall_s, outcome.cells)
        tracer.write(Path(spec["out"]), origin, result["layers"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
