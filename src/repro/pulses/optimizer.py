"""Piecewise-constant (GRAPE-style) pulse optimization.

The paper uses Juqbox to find the shortest control pulses implementing each
mixed-radix gate.  This module provides an equivalent-but-smaller optimizer:
the control field of each transmon is a piecewise-constant envelope, and
SciPy's L-BFGS-B minimises ``1 - F`` where ``F`` is the standard
trace-overlap gate fidelity restricted to the logical subspace (Eq. 1).

The optimizer exists to demonstrate the *trend* the paper reports — gate
duration grows with the Hilbert-space dimension of the logical subspace —
and to exercise the Hamiltonian model; the compiler itself consumes the
published Table 1 durations through :class:`repro.pulses.GateDurationTable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.pulses.hamiltonian import TransmonSystem


@dataclass
class PulseResult:
    """Outcome of one pulse optimization run."""

    #: Name or description of the target gate.
    gate_name: str
    #: Total pulse duration in nanoseconds.
    duration_ns: float
    #: Achieved gate fidelity in the logical subspace.
    fidelity: float
    #: Optimized piecewise-constant amplitudes, shape (segments, controls), GHz.
    amplitudes: np.ndarray = field(repr=False)
    #: Number of objective evaluations used.
    evaluations: int = 0

    @property
    def infidelity(self) -> float:
        """``1 - fidelity``."""
        return 1.0 - self.fidelity


class PulseOptimizer:
    """Optimize piecewise-constant control pulses for a transmon system.

    Parameters
    ----------
    system:
        The :class:`TransmonSystem` to drive.
    segments:
        Number of piecewise-constant segments per control field.
    max_iterations:
        Iteration budget handed to the SciPy optimizer.
    seed:
        Seed for the random initial guess.
    """

    def __init__(
        self,
        system: TransmonSystem,
        segments: int = 12,
        max_iterations: int = 150,
        seed: int = 7,
    ) -> None:
        if segments < 1:
            raise ValueError("at least one pulse segment is required")
        self.system = system
        self.segments = int(segments)
        self.max_iterations = int(max_iterations)
        self._rng = np.random.default_rng(seed)
        self._projector = system.projector_logical()

    # ------------------------------------------------------------------
    # forward simulation
    # ------------------------------------------------------------------
    def propagate(self, amplitudes: np.ndarray, duration_ns: float) -> np.ndarray:
        """Unitary generated by a piecewise-constant pulse of total duration."""
        amplitudes = np.asarray(amplitudes, dtype=float)
        if amplitudes.shape != (self.segments, self.system.num_transmons):
            raise ValueError(
                "amplitudes must have shape (segments, num_transmons) = "
                f"({self.segments}, {self.system.num_transmons}), got {amplitudes.shape}"
            )
        if duration_ns <= 0:
            raise ValueError("pulse duration must be positive")
        from scipy.linalg import expm

        dt = duration_ns / self.segments
        unitary = np.eye(self.system.dimension, dtype=complex)
        for segment in range(self.segments):
            hamiltonian = self.system.hamiltonian(amplitudes[segment])
            unitary = expm(-1j * hamiltonian * dt) @ unitary
        return unitary

    def gate_fidelity(self, unitary: np.ndarray, target_logical: np.ndarray) -> float:
        """Trace-overlap fidelity of ``unitary`` against a logical-subspace target."""
        projector = self._projector
        logical_dim = projector.shape[1]
        if target_logical.shape != (logical_dim, logical_dim):
            raise ValueError(
                f"target must act on the {logical_dim}-dimensional logical subspace, "
                f"got shape {target_logical.shape}"
            )
        restricted = projector.T @ unitary @ projector
        overlap = np.trace(target_logical.conj().T @ restricted)
        return float(abs(overlap) ** 2 / logical_dim**2)

    def leakage(self, unitary: np.ndarray) -> float:
        """Average population leaving the logical subspace."""
        projector = self._projector
        logical_dim = projector.shape[1]
        restricted = projector.T @ unitary @ projector
        retained = np.linalg.norm(restricted) ** 2 / logical_dim
        return float(max(0.0, 1.0 - retained))

    # ------------------------------------------------------------------
    # optimization
    # ------------------------------------------------------------------
    def optimize(
        self,
        target_logical: np.ndarray,
        duration_ns: float,
        gate_name: str = "custom",
        initial_amplitudes: np.ndarray | None = None,
        leakage_weight: float = 0.1,
    ) -> PulseResult:
        """Optimize a pulse of fixed duration toward ``target_logical``."""
        shape = (self.segments, self.system.num_transmons)
        max_drive = self.system.max_drive
        if initial_amplitudes is None:
            initial = self._rng.uniform(-0.5, 0.5, size=shape) * max_drive
        else:
            initial = np.asarray(initial_amplitudes, dtype=float).reshape(shape)
        evaluations = 0

        def objective(flat: np.ndarray) -> float:
            nonlocal evaluations
            evaluations += 1
            amplitudes = flat.reshape(shape)
            unitary = self.propagate(amplitudes, duration_ns)
            infidelity = 1.0 - self.gate_fidelity(unitary, target_logical)
            return infidelity + leakage_weight * self.leakage(unitary)

        from scipy.optimize import minimize

        bounds = [(-max_drive, max_drive)] * initial.size
        result = minimize(
            objective,
            initial.ravel(),
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": self.max_iterations, "ftol": 1e-12},
        )
        best = result.x.reshape(shape)
        final_unitary = self.propagate(best, duration_ns)
        fidelity = self.gate_fidelity(final_unitary, target_logical)
        return PulseResult(
            gate_name=gate_name,
            duration_ns=float(duration_ns),
            fidelity=fidelity,
            amplitudes=best,
            evaluations=evaluations,
        )

    def find_min_duration(
        self,
        target_logical: np.ndarray,
        fidelity_target: float,
        gate_name: str = "custom",
        start_ns: float = 20.0,
        step_ns: float = 20.0,
        max_duration_ns: float = 400.0,
    ) -> PulseResult:
        """Shortest-duration search by incremental re-seeding (Section 3.3).

        Durations are tried in increasing order; each attempt is seeded with
        the previous attempt's amplitudes (time-stretched), mirroring the
        incremental pulse re-seeding technique the paper cites.  The first
        result meeting ``fidelity_target`` is returned; if none does, the
        best attempt is returned instead.
        """
        if not 0.0 < fidelity_target <= 1.0:
            raise ValueError("fidelity_target must be in (0, 1]")
        if not step_ns > 0.0:
            raise ValueError("step_ns must be positive")
        if not 0.0 < start_ns <= max_duration_ns:
            raise ValueError("start_ns must be in (0, max_duration_ns]")
        best: PulseResult | None = None
        previous_amplitudes: np.ndarray | None = None
        duration = start_ns
        while duration <= max_duration_ns + 1e-9:
            attempt = self.optimize(
                target_logical,
                duration,
                gate_name=gate_name,
                initial_amplitudes=previous_amplitudes,
            )
            previous_amplitudes = attempt.amplitudes
            if best is None or attempt.fidelity > best.fidelity:
                best = attempt
            if attempt.fidelity >= fidelity_target:
                return attempt
            duration += step_ns
        assert best is not None
        return best
