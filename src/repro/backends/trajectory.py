"""The default backend: the in-process mixed-radix trajectory engine.

This is a straight port of the pre-registry execution path — the compile
pipeline (:class:`~repro.compiler.pipeline.QompressCompiler`, scored by
the contract's ``compile_point``) and the vectorised :class:`~repro.noise.trajectory.TrajectoryEngine` — so
the golden bit-equality guarantees (``run`` vs ``run_reference``, serial vs
parallel, cached vs fresh) are untouched.  ``execute`` keeps one engine
per noise spec on the compiled circuit
(:meth:`~repro.compiler.result.CompiledCircuit.cached_schedule`), so the
shot chunks of one compile build it once; ``run_noise_points`` runs the
event-only chunks of one shot span on those engines in one pass.
"""

from __future__ import annotations

import repro.noise.trajectory as noise_trajectory
from repro.backends.contract import ExecutionBackend, ensure_noisy_result
from repro.compiler.pipeline import QompressCompiler
from repro.compiler.result import CompiledCircuit
from repro.noise.result import NoisyResult
from repro.noise.trajectory import TrajectoryEngine
from repro.runner.records import run_grouped


def _engine(compiled: CompiledCircuit, noise, track_state: bool) -> TrajectoryEngine:
    """The engine ``compiled`` keeps for ``noise``, built on first use."""
    return compiled.cached_schedule(
        ("trajectory-engine", noise, track_state),
        lambda: TrajectoryEngine(compiled, noise, track_state=track_state),
    )


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
        return _engine(compiled, noise, track_state).run(shots, seed, base_shot=base_shot)

    def run_noise_points(self, points) -> list[NoisyResult]:
        """Run the chunks, the event-only ones of each shot span in one pass.

        Event-only chunks over one ``(seed, base_shot, shots)`` span run as
        one :func:`~repro.noise.trajectory.run_event_engines` pass; their
        engines are looked up in plan order, the order the compile memo
        sees when chunks run one at a time.  Tracked chunks run alone.
        """
        engines = [
            None if point.track_state
            else _engine(self.compile_point(point.compile_point).compiled, point.noise, False)
            for point in points
        ]
        results = run_grouped(
            list(zip(points, engines)),
            lambda pair: (pair[0].track_state, pair[0].seed, pair[0].base_shot, pair[0].shots),
            self._run_span,
        )
        return [ensure_noisy_result(result, self.name) for result in results]

    def _run_span(self, pairs: list) -> list[NoisyResult]:
        """``(point, engine)`` pairs over one span: tracked ones alone, the rest in one pass."""
        point = pairs[0][0]
        if point.track_state:
            return [self.run_noise_point(tracked) for tracked, _ in pairs]
        # looked up through its module, so a tracer can patch it
        return noise_trajectory.run_event_engines([engine for _, engine in pairs],
                                                  point.shots, point.seed, point.base_shot)
