"""The default backend: the in-process mixed-radix trajectory engine.

This is a straight port of the pre-registry execution path — the compile
pipeline (:class:`~repro.compiler.pipeline.QompressCompiler` + EPS report)
and the vectorised :class:`~repro.noise.trajectory.TrajectoryEngine` — so
the golden bit-equality guarantees (``run`` vs ``run_reference``, serial vs
parallel, cached vs fresh) are untouched.  Shot chunks build their engines
from the backend's compile memo, which
:func:`repro.noise.points.prime_compiled` writes into.
"""

from __future__ import annotations

from repro.backends.contract import (
    CompiledHandle,
    ExecutionBackend,
    LRUMemo,
    ensure_noisy_result,
)
from repro.backends.registry import register_backend
from repro.noise.result import NoisyResult
from repro.noise.trajectory import TrajectoryEngine


@register_backend("trajectory")
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
                ) -> CompiledHandle:
        """Compile through the Qompress pipeline and evaluate analytic EPS."""
        from repro.compiler.pipeline import QompressCompiler
        from repro.metrics.eps import evaluate_eps

        compiled = QompressCompiler(device, strategy, **(compiler_kwargs or {})).compile(circuit)
        return CompiledHandle(
            backend=self.name, compiled=compiled, report=evaluate_eps(compiled)
        )

    def execute(self, handle: CompiledHandle, shots: int, seed: int, *,
                noise, base_shot: int = 0, track_state: bool = False) -> NoisyResult:
        """Sample seeded trajectories; bit-identical at any chunk split."""
        engine = TrajectoryEngine(handle.compiled, noise, track_state=track_state)
        return engine.run(shots, seed, base_shot=base_shot)

    def run_noise_point(self, point) -> NoisyResult:
        """Shot-chunk worker body, via the per-process engine memo.

        Overrides the base implementation so that a thousand chunks of one
        circuit build the engine (op probabilities, idle channels) once per
        process, from the compiled handle memo.
        """
        key = (point.compile_point, point.noise, point.track_state)
        engine = self.engines.get(key)
        if engine is None:
            handle = self.compile_point(point.compile_point)
            engine = TrajectoryEngine(handle.compiled, point.noise, track_state=point.track_state)
            self.engines.put(key, engine)
        result = engine.run(point.shots, point.seed, base_shot=point.base_shot)
        return ensure_noisy_result(result, self.name)
