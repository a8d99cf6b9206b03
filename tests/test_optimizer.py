"""Tests for the piecewise-constant pulse optimizer."""

import numpy as np
import pytest

from repro.pulses import PulseOptimizer, PulseResult, TransmonSystem, qubit_gate


@pytest.fixture
def single_qubit_system() -> TransmonSystem:
    return TransmonSystem(num_transmons=1, logical_levels=2, guard_levels=1)


@pytest.fixture
def optimizer(single_qubit_system) -> PulseOptimizer:
    return PulseOptimizer(single_qubit_system, segments=8, max_iterations=60, seed=11)


class TestPropagation:
    def test_zero_drive_propagator_is_unitary(self, optimizer):
        amplitudes = np.zeros((8, 1))
        unitary = optimizer.propagate(amplitudes, duration_ns=30.0)
        assert np.allclose(unitary.conj().T @ unitary, np.eye(unitary.shape[0]), atol=1e-8)

    def test_propagate_validates_shape(self, optimizer):
        with pytest.raises(ValueError):
            optimizer.propagate(np.zeros((3, 1)), duration_ns=10.0)
        with pytest.raises(ValueError):
            optimizer.propagate(np.zeros((8, 1)), duration_ns=0.0)

    def test_identity_fidelity_with_zero_drive(self, single_qubit_system):
        # In the rotating frame the undriven qubit subspace only picks up
        # phases from the anharmonicity on guard levels, so the identity
        # fidelity of a short zero pulse should be essentially one.
        optimizer = PulseOptimizer(single_qubit_system, segments=4)
        unitary = optimizer.propagate(np.zeros((4, 1)), duration_ns=1.0)
        fidelity = optimizer.gate_fidelity(unitary, np.eye(2, dtype=complex))
        assert fidelity > 0.99

    def test_fidelity_requires_logical_dimension(self, optimizer):
        unitary = optimizer.propagate(np.zeros((8, 1)), duration_ns=5.0)
        with pytest.raises(ValueError):
            optimizer.gate_fidelity(unitary, np.eye(3, dtype=complex))

    def test_leakage_nonnegative(self, optimizer):
        amplitudes = np.full((8, 1), 0.04)
        unitary = optimizer.propagate(amplitudes, duration_ns=40.0)
        assert optimizer.leakage(unitary) >= 0.0


class TestOptimization:
    def test_optimize_improves_x_gate_fidelity(self, optimizer):
        target = qubit_gate("x")
        result = optimizer.optimize(target, duration_ns=60.0, gate_name="x")
        # A resonant pi rotation of a single qubit is easy; the optimizer
        # should find a clearly non-trivial pulse.
        assert result.fidelity > 0.5
        assert result.gate_name == "x"
        assert result.duration_ns == pytest.approx(60.0)
        assert result.amplitudes.shape == (8, 1)
        assert np.all(np.abs(result.amplitudes) <= optimizer.system.max_drive + 1e-12)
        assert result.evaluations > 0
        assert result.infidelity == pytest.approx(1.0 - result.fidelity)

    def test_optimize_accepts_seed_pulse(self, optimizer):
        target = qubit_gate("x")
        first = optimizer.optimize(target, duration_ns=60.0)
        second = optimizer.optimize(target, duration_ns=60.0,
                                    initial_amplitudes=first.amplitudes)
        assert second.fidelity >= first.fidelity - 0.05

    def test_find_min_duration_returns_best_attempt(self, single_qubit_system):
        optimizer = PulseOptimizer(single_qubit_system, segments=6, max_iterations=40, seed=3)
        target = qubit_gate("x")
        result = optimizer.find_min_duration(
            target, fidelity_target=0.4, gate_name="x",
            start_ns=20.0, step_ns=20.0, max_duration_ns=60.0,
        )
        assert result.fidelity > 0.0
        assert 20.0 <= result.duration_ns <= 60.0

    def test_find_min_duration_validates_target(self, optimizer):
        with pytest.raises(ValueError):
            optimizer.find_min_duration(qubit_gate("x"), fidelity_target=1.5)

    @pytest.mark.parametrize(
        "start_ns, step_ns, max_duration_ns",
        [
            (20.0, 0.0, 60.0),  # would never advance past start_ns
            (20.0, -5.0, 60.0),  # would walk away from max_duration_ns
            (20.0, float("nan"), 60.0),
            (0.0, 20.0, 60.0),
            (-20.0, 20.0, 60.0),
            (80.0, 20.0, 60.0),  # no attempt would run
        ],
    )
    def test_find_min_duration_validates_search_range(
        self, optimizer, monkeypatch, start_ns, step_ns, max_duration_ns
    ):
        def no_attempts(*args, **kwargs):
            raise AssertionError("the search range is checked before any attempt")

        monkeypatch.setattr(optimizer, "optimize", no_attempts)
        with pytest.raises(ValueError):
            optimizer.find_min_duration(
                qubit_gate("x"), fidelity_target=0.999,
                start_ns=start_ns, step_ns=step_ns, max_duration_ns=max_duration_ns,
            )

    def test_find_min_duration_single_attempt_at_max(self, optimizer, monkeypatch):
        durations = []

        def record(target, duration_ns, gate_name="custom", initial_amplitudes=None):
            durations.append(duration_ns)
            return PulseResult(gate_name, duration_ns, 0.1, np.zeros((8, 1)))

        monkeypatch.setattr(optimizer, "optimize", record)
        result = optimizer.find_min_duration(
            qubit_gate("x"), fidelity_target=0.999,
            start_ns=60.0, step_ns=20.0, max_duration_ns=60.0,
        )
        assert durations == [60.0]
        assert result.duration_ns == 60.0

    def test_invalid_segments_rejected(self, single_qubit_system):
        with pytest.raises(ValueError):
            PulseOptimizer(single_qubit_system, segments=0)
