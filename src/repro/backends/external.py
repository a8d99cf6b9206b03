"""The external-sim backend: QASM round-trip plus an independent estimator.

This backend treats the compiler's output the way an external simulator
would — as a *program*, not an in-memory object.  Every compile:

1. runs the Qompress pipeline with single-qubit merging disabled (merged
   ``x01`` ops have no replayable unitary),
2. serialises the physical program with
   :func:`~repro.circuits.qasm.compiled_to_qasm`, re-imports it with
   :func:`~repro.circuits.qasm.parse_physical_qasm`, and structurally
   cross-checks the round trip against the op stream, and
3. replays the op stream on the independent
   :class:`~repro.simulation.dense.DenseStatevector` engine and asserts
   fidelity ≈ 1 against the mixed-radix replayer (skipped above
   :attr:`ExternalSimBackend.MAX_DENSE_DIMENSION` amplitudes).

Execution estimates EPS by an event sampler that is deliberately *not* the
trajectory engine: scalar per-op error probabilities, per-shot salted RNG
streams (so the two backends' estimates are statistically independent and
comparable only through their confidence intervals), same chunk-split
invariance.  ``repro crosscheck`` uses this to cross-verify the paper's
EPS numbers between implementations.
"""

from __future__ import annotations

import numpy as np

from repro.backends.contract import (
    BackendError,
    CompiledHandle,
    ExecutionBackend,
)
from repro.circuits.qasm import parse_physical_qasm
from repro.compiler.pipeline import QompressCompiler
from repro.metrics import eps
from repro.noise.model import resolve_model
from repro.noise.result import NoisyResult
from repro.simulation.dense import dense_replay_fidelity
from repro.simulation.verify import register_dims

#: Extra seed-tuple entry giving every shot a stream distinct from the
#: trajectory engine's ``(seed, shot)`` stream — same distribution,
#: independent draws, still deterministic per absolute shot index.
_STREAM_SALT = 0x5EED


class ExternalSimBackend(ExecutionBackend):
    """Round-tripped programs, independently simulated and estimated."""

    name = "external-sim"
    #: Merged x01 ops carry no unitary; the round trip needs a replayable
    #: op stream.  Constant per class, so content keys stay unambiguous.
    compiler_overrides = {"merge_single_qubit_gates": False}

    #: Dense replay verifies compiles up to this many amplitudes; larger
    #: registers skip the statevector cross-check (the round-trip and the
    #: event estimator still run).
    MAX_DENSE_DIMENSION = 1 << 14

    #: Fidelity floor for the dense-vs-mixed-radix replay agreement.
    MIN_REPLAY_FIDELITY = 1.0 - 1e-9

    def compile(self, circuit, device, strategy, compiler_kwargs: dict | None = None,
                ) -> CompiledHandle:
        """Compile, round-trip through QASM, and cross-verify the result."""
        import math

        kwargs = dict(compiler_kwargs or {})
        kwargs.update(self.compiler_overrides)
        compiled = QompressCompiler(device, strategy, **kwargs).compile(circuit)
        qasm_text = compiled.to_qasm()
        program = parse_physical_qasm(qasm_text)
        self._check_roundtrip(compiled, program)
        # Dynamic programs branch at runtime; the dense replayer is a
        # single-unitary pipeline, so the statevector cross-check only
        # covers static compiles (the round-trip check above still runs).
        if (
            not compiled.is_dynamic
            and math.prod(register_dims(compiled)) <= self.MAX_DENSE_DIMENSION
        ):
            fidelity = dense_replay_fidelity(compiled)
            if fidelity < self.MIN_REPLAY_FIDELITY:
                raise BackendError(
                    f"dense replay disagrees with the mixed-radix replay "
                    f"(fidelity {fidelity:.12f}) for {compiled.circuit_name!r}"
                )
        return CompiledHandle(
            backend=self.name, compiled=compiled,
            report=eps.evaluate_eps(compiled), qasm=qasm_text,
        )

    @staticmethod
    def _dense_cbit_map(compiled) -> dict[int, int]:
        """Logical classical bit -> its dense physical-QASM renumbering.

        The physical serializer declares one register per condition run and
        one singleton per other measured bit, in ascending bit order — so a
        re-imported program addresses bit ``b`` as the rank of ``b`` among
        all classically used bits.
        """
        used: set[int] = set()
        for op in compiled.ops:
            used.update(op.cbits)
            if op.condition is not None:
                used.update(op.condition[0])
        return {bit: rank for rank, bit in enumerate(sorted(used))}

    @classmethod
    def _check_roundtrip(cls, compiled, program) -> None:
        """Structurally compare the re-imported program to the op stream.

        Static compiles compare ``(gate, units)`` per instruction.  Dynamic
        compiles additionally compare classical targets and controls under
        the dense bit renumbering, with ``measure_mid`` normalised to
        ``measure`` (the re-import classifies terminal vs mid by role, which
        is exact for every bit that is read or followed by later ops).
        """
        if program.num_units != compiled.device.num_units:
            raise BackendError(
                f"round trip changed the register width: emitted "
                f"{compiled.device.num_units} units, re-imported {program.num_units}"
            )
        if compiled.is_dynamic:
            rank = cls._dense_cbit_map(compiled)
            expected = [
                (
                    "measure" if op.gate == "measure_mid" else op.gate,
                    tuple(op.units),
                    tuple(rank[bit] for bit in op.cbits),
                    (tuple(rank[bit] for bit in op.condition[0]), op.condition[1])
                    if op.condition is not None else None,
                )
                for op in sorted(compiled.ops, key=lambda op: op.start_ns)
            ]
            parsed = [
                (
                    "measure" if instruction.gate == "measure_mid" else instruction.gate,
                    tuple(instruction.units),
                    tuple(instruction.cbits),
                    instruction.condition,
                )
                for instruction in program.instructions
            ]
        else:
            expected = [
                (op.gate, tuple(op.units))
                for op in sorted(compiled.ops, key=lambda op: op.start_ns)
            ]
            parsed = [
                (instruction.gate, tuple(instruction.units))
                for instruction in program.instructions
            ]
        if len(parsed) != len(expected):
            raise BackendError(
                f"round trip changed the instruction count for "
                f"{compiled.circuit_name!r}: {len(expected)} ops emitted, "
                f"{len(parsed)} re-imported"
            )
        if parsed != expected:
            where = next(
                index for index, (a, b) in enumerate(zip(parsed, expected)) if a != b
            )
            raise BackendError(
                f"round trip changed the instruction stream for "
                f"{compiled.circuit_name!r} at index {where}: emitted "
                f"{expected[where]!r}, re-imported {parsed[where]!r}"
            )
        if program.strategy != compiled.strategy_name:
            raise BackendError(
                f"round trip lost the strategy directive: "
                f"{compiled.strategy_name!r} became {program.strategy!r}"
            )

    # ------------------------------------------------------------------
    # independent event estimation
    # ------------------------------------------------------------------
    @staticmethod
    def _event_thresholds(compiled, model) -> np.ndarray:
        """Per-event error thresholds: one per op, then one per qubit.

        Gate thresholds come from
        :meth:`~repro.noise.model.NoiseModel.op_error_probabilities`, the
        same per-op values the trajectory engine samples against; idle
        thresholds from the decay channels.
        """
        _qubits, gammas = model.idle_decay_channels(compiled)
        return np.concatenate([model.op_error_probabilities(compiled), gammas])

    def execute(self, handle: CompiledHandle, shots: int, seed: int, *,
                noise, base_shot: int = 0, track_state: bool = False) -> NoisyResult:
        """Sample error events with per-shot salted streams.

        Each shot draws from ``default_rng((seed, shot, salt))`` — one
        private stream per absolute shot index, so any chunk split of the
        same request merges to identical totals, while the draws are
        independent of the trajectory backend's.
        """
        if track_state:
            raise BackendError(
                "the external-sim backend is event-only; use the "
                "'trajectory' backend for state tracking"
            )
        if shots < 0:
            raise ValueError("shots must be non-negative")
        compiled = handle.compiled
        model = resolve_model(noise, compiled.device)
        thresholds = self._event_thresholds(compiled, model)
        num_ops = len(compiled.ops)
        no_error = 0
        gate_events = 0
        idle_events = 0
        for offset in range(shots):
            rng = np.random.default_rng((seed, base_shot + offset, _STREAM_SALT))
            draws = rng.random(len(thresholds))
            hits = draws < thresholds
            shot_gate = int(hits[:num_ops].sum())
            shot_idle = int(hits[num_ops:].sum())
            gate_events += shot_gate
            idle_events += shot_idle
            if shot_gate == 0 and shot_idle == 0:
                no_error += 1
        return NoisyResult(
            shots=shots, seed=seed, no_error_shots=no_error,
            gate_events=gate_events, idle_events=idle_events,
        )
