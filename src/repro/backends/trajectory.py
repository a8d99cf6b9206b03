"""The default backend: the in-process mixed-radix trajectory engine.

This is a straight port of the pre-registry execution path — the compile
pipeline (:class:`~repro.compiler.pipeline.QompressCompiler`, scored by
the contract's ``compile_point``) and the vectorised :class:`~repro.noise.trajectory.TrajectoryEngine` — so
the golden bit-equality guarantees (``run`` vs ``run_reference``, serial vs
parallel, cached vs fresh) are untouched.  Shot chunks build their engines
from the backend's compile memo, which
:func:`repro.noise.points.prime_compiled` writes into.
"""

from __future__ import annotations

from repro.backends.contract import ExecutionBackend, LRUMemo, ensure_noisy_result
from repro.compiler.pipeline import QompressCompiler
from repro.compiler.result import CompiledCircuit
from repro.noise.result import NoisyResult
from repro.noise.trajectory import TrajectoryEngine


class TrajectoryBackend(ExecutionBackend):
    """Monte Carlo trajectory sampling on the mixed-radix statevector."""

    name = "trajectory"
    supports_track_state = True

    #: Trajectory engines kept per process; shot chunks arrive grouped by
    #: cell, so a few suffice.
    ENGINE_CAPACITY = 16

    def __init__(self) -> None:
        super().__init__()
        #: Engines by (compile memo key, noise spec, track_state).
        self.engines = LRUMemo(self.ENGINE_CAPACITY)

    def compile(self, circuit, device, strategy, compiler_kwargs: dict | None = None,
                ) -> CompiledCircuit:
        """Compile through the Qompress pipeline."""
        return QompressCompiler(device, strategy, **(compiler_kwargs or {})).compile(circuit)

    def run_noise_point(self, point) -> NoisyResult:
        """Shot-chunk worker body, via the per-process engine memo.

        Stands in for the base implementation (this backend has no
        ``execute``) so that a thousand chunks of one circuit build the
        engine (op probabilities, idle channels) once per process, from
        the compile memo.
        """
        key = (point.compile_point, point.noise, point.track_state)
        engine = self.engines.get(key)
        if engine is None:
            compiled = self.compile_point(point.compile_point).compiled
            engine = TrajectoryEngine(compiled, point.noise, track_state=point.track_state)
            self.engines.put(key, engine)
        result = engine.run(point.shots, point.seed, base_shot=point.base_shot)
        return ensure_noisy_result(result, self.name)
