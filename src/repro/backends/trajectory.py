"""The default backend: the in-process mixed-radix trajectory engine.

This is a straight port of the pre-registry execution path — the compile
pipeline (:class:`~repro.compiler.pipeline.QompressCompiler`, scored by
the contract's ``compile_point``) and the vectorised :class:`~repro.noise.trajectory.TrajectoryEngine` — so
the golden bit-equality guarantees (``run`` vs ``run_reference``, serial vs
parallel, cached vs fresh) are untouched.  ``execute`` keeps one engine
per noise spec on the compiled circuit
(:meth:`~repro.compiler.result.CompiledCircuit.cached_schedule`), so the
shot chunks of one compile build it once.
"""

from __future__ import annotations

from repro.backends.contract import ExecutionBackend
from repro.compiler.pipeline import QompressCompiler
from repro.compiler.result import CompiledCircuit
from repro.noise.result import NoisyResult
from repro.noise.trajectory import TrajectoryEngine


class TrajectoryBackend(ExecutionBackend):
    """Monte Carlo trajectory sampling on the mixed-radix statevector."""

    name = "trajectory"
    supports_track_state = True

    def compile(self, circuit, device, strategy, compiler_kwargs: dict | None = None,
                ) -> CompiledCircuit:
        """Compile through the Qompress pipeline."""
        return QompressCompiler(device, strategy, **(compiler_kwargs or {})).compile(circuit)

    def execute(self, compiled: CompiledCircuit, shots: int, seed: int, *,
                noise, base_shot: int = 0, track_state: bool = False) -> NoisyResult:
        """Run ``shots`` trajectories on the engine ``compiled`` keeps for ``noise``."""
        engine = compiled.cached_schedule(
            ("trajectory-engine", noise, track_state),
            lambda: TrajectoryEngine(compiled, noise, track_state=track_state),
        )
        return engine.run(shots, seed, base_shot=base_shot)
