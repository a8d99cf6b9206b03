"""Tests for the mixed-radix state-vector simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simulation.batched as batched_module
from repro.pulses import embed_operator, qubit_gate
from repro.pulses.unitaries import CX_MATRIX
from repro.simulation import BatchedMixedRadixState, MixedRadixState


class TestConstruction:
    def test_default_state_is_ground(self):
        state = MixedRadixState((2, 4))
        probabilities = state.probabilities()
        assert probabilities[0] == pytest.approx(1.0)
        assert probabilities[1:].sum() == pytest.approx(0.0)

    def test_from_levels(self):
        state = MixedRadixState.from_levels((2, 4), (1, 3))
        labels, probability = state.dominant_basis_state()
        assert labels == (1, 3)
        assert probability == pytest.approx(1.0)

    def test_from_levels_validates(self):
        with pytest.raises(ValueError):
            MixedRadixState.from_levels((2, 4), (2, 0))
        with pytest.raises(ValueError):
            MixedRadixState.from_levels((2, 4), (0,))

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            MixedRadixState(())
        with pytest.raises(ValueError):
            MixedRadixState((2, 1))

    def test_set_vector_requires_normalisation(self):
        state = MixedRadixState((2, 2))
        with pytest.raises(ValueError):
            state.set_vector(np.array([1.0, 1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            state.set_vector(np.zeros(3))


class TestEvolution:
    def test_x_on_single_unit(self):
        state = MixedRadixState((2, 2))
        state.apply(qubit_gate("x"), (1,))
        assert state.dominant_basis_state()[0] == (0, 1)

    def test_cx_across_units(self):
        state = MixedRadixState.from_levels((2, 2), (1, 0))
        state.apply(CX_MATRIX, (0, 1))
        assert state.dominant_basis_state()[0] == (1, 1)

    def test_cx_with_reversed_unit_order(self):
        # Applying CX with units (1, 0) makes unit 1 the control.
        state = MixedRadixState.from_levels((2, 2), (0, 1))
        state.apply(CX_MATRIX, (1, 0))
        assert state.dominant_basis_state()[0] == (1, 1)

    def test_hadamard_creates_uniform_marginal(self):
        state = MixedRadixState((2, 2))
        state.apply(qubit_gate("h"), (0,))
        populations = state.unit_populations(0)
        assert populations == pytest.approx([0.5, 0.5])
        assert state.unit_populations(1) == pytest.approx([1.0, 0.0])

    def test_ququart_gate_on_mixed_register(self):
        x0 = embed_operator(qubit_gate("x"), (4,), [(0, 0)])
        state = MixedRadixState((4, 2))
        state.apply(x0, (0,))
        assert state.dominant_basis_state()[0] == (2, 0)

    def test_apply_validates_targets(self):
        state = MixedRadixState((2, 2, 2))
        with pytest.raises(ValueError):
            state.apply(CX_MATRIX, (0, 0))
        with pytest.raises(ValueError):
            state.apply(CX_MATRIX, (0, 5))
        with pytest.raises(ValueError):
            state.apply(CX_MATRIX, (0,))

    def test_entangled_fidelity(self):
        bell = MixedRadixState((2, 2))
        bell.apply(qubit_gate("h"), (0,))
        bell.apply(CX_MATRIX, (0, 1))
        other = MixedRadixState((2, 2))
        other.apply(qubit_gate("h"), (0,))
        other.apply(CX_MATRIX, (0, 1))
        assert bell.fidelity_with(other) == pytest.approx(1.0)
        ground = MixedRadixState((2, 2))
        assert bell.fidelity_with(ground) == pytest.approx(0.5)

    def test_fidelity_requires_same_register(self):
        with pytest.raises(ValueError):
            MixedRadixState((2, 2)).fidelity_with(MixedRadixState((2, 4)))


class TestProperties:
    @given(
        dims=st.lists(st.sampled_from([2, 4]), min_size=1, max_size=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_norm_preserved_by_random_single_unit_gates(self, dims, seed):
        rng = np.random.default_rng(seed)
        state = MixedRadixState(tuple(dims))
        for _ in range(5):
            unit = int(rng.integers(len(dims)))
            gate = qubit_gate(str(rng.choice(["x", "h", "s", "t", "z"])))
            slot = 0 if dims[unit] == 2 else int(rng.integers(2))
            unitary = embed_operator(gate, (dims[unit],), [(0, slot)])
            state.apply(unitary, (unit,))
        assert np.sum(state.probabilities()) == pytest.approx(1.0)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_probabilities_sum_to_one_after_entangling(self, seed):
        rng = np.random.default_rng(seed)
        state = MixedRadixState((2, 4, 2))
        for _ in range(6):
            a, b = rng.choice(3, size=2, replace=False)
            slot_a = 0 if state.dims[a] == 2 else int(rng.integers(2))
            slot_b = 0 if state.dims[b] == 2 else int(rng.integers(2))
            unitary = embed_operator(
                CX_MATRIX, (state.dims[a], state.dims[b]), [(0, slot_a), (1, slot_b)]
            )
            state.apply(unitary, (int(a), int(b)))
        assert np.sum(state.probabilities()) == pytest.approx(1.0)


class TestSetVectorRenormalisation:
    """set_vector tolerates accumulated float drift (loose sanity bound)."""

    def test_small_drift_is_renormalised(self):
        state = MixedRadixState((2, 2))
        drifted = np.array([1.0 + 5e-5, 0.0, 0.0, 0.0], dtype=complex)
        state.set_vector(drifted)
        assert np.linalg.norm(state.vector) == pytest.approx(1.0, abs=1e-12)

    def test_gross_deviation_still_raises(self):
        state = MixedRadixState((2, 2))
        with pytest.raises(ValueError, match="normalised"):
            state.set_vector(np.array([1.0, 1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            state.set_vector(np.zeros(3))

    def test_exactly_normalised_vector_is_unchanged(self):
        state = MixedRadixState((2, 2))
        vector = np.zeros(4, dtype=complex)
        vector[2] = 1.0
        state.set_vector(vector)
        assert (state.vector == vector).all()

    def test_long_damping_kraus_chain_round_trips(self):
        # a deep chain of no-jump amplitude-damping Kraus ops accumulates
        # norm drift past the old 1e-8 gate; the state must still be
        # accepted back via set_vector
        state = MixedRadixState((2, 2))
        state.apply(qubit_gate("h"), (0,))
        state.apply(CX_MATRIX, (0, 1))
        k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - 1e-6)]], dtype=complex)
        for _ in range(500):
            state.apply_kraus(embed_operator(k0, (2,), [(0, 0)]), (0,))
        vector = state.vector
        fresh = MixedRadixState((2, 2))
        fresh.set_vector(vector)  # must not raise
        assert np.linalg.norm(fresh.vector) == pytest.approx(1.0, abs=1e-12)


class TestBatchedState:
    """BatchedMixedRadixState lanes evolve bit-identically to the scalar class."""

    def _random_program(self, dims, rng, steps=6):
        """A list of (operator, units) mixing 1- and 2-unit unitaries.

        Operators are Haar-ish (QR of a random complex matrix) over the
        full sub-dimension, so the helper works for any unit levels —
        including the 3-/5-level units that force the stacked fallback.
        """
        program = []
        for _ in range(steps):
            if len(dims) >= 2 and rng.random() < 0.5:
                a, b = rng.choice(len(dims), size=2, replace=False)
                units = (int(a), int(b))
            else:
                units = (int(rng.integers(len(dims))),)
            sub = int(np.prod([dims[unit] for unit in units]))
            random_matrix = (rng.standard_normal((sub, sub))
                             + 1j * rng.standard_normal((sub, sub)))
            operator = np.linalg.qr(random_matrix)[0]
            program.append((operator, units))
        return program

    @given(
        # 3- and 5-level units exercise the non-power-of-two fallback,
        # where the wide GEMM panel would not be bit-stable
        dims=st.lists(st.sampled_from([2, 3, 4, 5]), min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        batch=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=30, deadline=None)
    def test_apply_matches_scalar_per_lane(self, dims, seed, batch):
        dims = tuple(dims)
        rng = np.random.default_rng(seed)
        program = self._random_program(dims, rng)
        batched = BatchedMixedRadixState(dims, batch)
        scalars = [MixedRadixState(dims) for _ in range(batch)]
        for operator, units in program:
            batched.apply(operator, units)
            for scalar in scalars:
                scalar.apply(operator, units)
        lanes = batched.vectors()
        for lane, scalar in zip(lanes, scalars):
            assert (lane == scalar.vector).all()

    def test_lane_masked_apply_touches_only_selected_lanes(self):
        batched = BatchedMixedRadixState((2, 2), 5)
        before = batched.vectors()
        batched.apply(qubit_gate("x"), (0,), lanes=np.array([1, 3]))
        after = batched.vectors()
        scalar = MixedRadixState((2, 2))
        scalar.apply(qubit_gate("x"), (0,))
        for lane in range(5):
            if lane in (1, 3):
                assert (after[lane] == scalar.vector).all()
            else:
                assert (after[lane] == before[lane]).all()

    def test_apply_kraus_matches_scalar_per_lane(self):
        dims = (2, 4)
        rng = np.random.default_rng(3)
        program = self._random_program(dims, rng, steps=4)
        batched = BatchedMixedRadixState(dims, 4)
        scalars = [MixedRadixState(dims) for _ in range(4)]
        for operator, units in program:
            batched.apply(operator, units)
            for scalar in scalars:
                scalar.apply(operator, units)
        k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(0.75)]], dtype=complex)
        operator = embed_operator(k0, (2,), [(0, 0)])
        weights = batched.apply_kraus(operator, (0,))
        for lane, scalar in enumerate(scalars):
            expected = scalar.apply_kraus(operator, (0,))
            assert weights[lane] == expected
            assert (batched.vectors()[lane] == scalar.vector).all()

    def test_apply_kraus_dead_branch_is_a_no_op(self):
        # ground state has no excited amplitude: the jump cannot fire
        batched = BatchedMixedRadixState((2,), 3)
        jump = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        weights = batched.apply_kraus(jump, (0,))
        assert (weights == 0.0).all()
        assert (batched.vectors() == BatchedMixedRadixState((2,), 3).vectors()).all()

    def test_unit_populations_match_scalar(self):
        dims = (4, 2, 2)
        rng = np.random.default_rng(11)
        program = self._random_program(dims, rng)
        batched = BatchedMixedRadixState(dims, 3)
        scalar = MixedRadixState(dims)
        for operator, units in program:
            batched.apply(operator, units)
            scalar.apply(operator, units)
        for unit in range(len(dims)):
            batch_pops = batched.unit_populations(unit)
            expected = scalar.unit_populations(unit)
            for lane in range(3):
                assert (batch_pops[lane] == expected).all()

    def test_fidelities_match_scalar_vdot(self):
        dims = (2, 2)
        batched = BatchedMixedRadixState(dims, 2)
        batched.apply(qubit_gate("h"), (0,), lanes=np.array([1]))
        target = MixedRadixState(dims)
        fidelities = batched.fidelities_with(target.vector)
        assert fidelities[0] == pytest.approx(1.0)
        assert fidelities[1] == pytest.approx(0.5)
        probe = MixedRadixState(dims)
        probe.apply(qubit_gate("h"), (0,))
        assert fidelities[1] == probe.fidelity_with(target)

    def test_set_vectors_renormalises_and_validates(self):
        batched = BatchedMixedRadixState((2, 2), 2)
        drifted = np.zeros((2, 4), dtype=complex)
        drifted[0, 0] = 1.0 + 2e-5
        drifted[1, 2] = 1.0 - 2e-5
        batched.set_vectors(drifted)
        norms = np.linalg.norm(batched.vectors(), axis=1)
        assert norms == pytest.approx([1.0, 1.0], abs=1e-12)
        with pytest.raises(ValueError, match="normalised"):
            batched.set_vectors(np.ones((2, 4), dtype=complex))
        with pytest.raises(ValueError, match="shape"):
            batched.set_vectors(np.zeros((3, 4), dtype=complex))

    def test_sample_outcomes_follow_probabilities(self):
        batched = BatchedMixedRadixState((2, 2), 4)
        batched.apply(qubit_gate("x"), (1,), lanes=np.array([2, 3]))
        outcomes = batched.sample_outcomes(np.array([0.3, 0.9, 0.1, 0.5]))
        assert outcomes.tolist() == [0, 0, 1, 1]
        with pytest.raises(ValueError):
            batched.sample_outcomes(np.zeros(3))

    def test_construction_validates(self):
        with pytest.raises(ValueError):
            BatchedMixedRadixState((), 2)
        with pytest.raises(ValueError):
            BatchedMixedRadixState((2, 1), 2)
        with pytest.raises(ValueError):
            BatchedMixedRadixState((2, 2), -1)

    def test_apply_validates_targets(self):
        batched = BatchedMixedRadixState((2, 2, 2), 2)
        with pytest.raises(ValueError):
            batched.apply(CX_MATRIX, (0, 0))
        with pytest.raises(ValueError):
            batched.apply(CX_MATRIX, (0, 5))
        with pytest.raises(ValueError):
            batched.apply(CX_MATRIX, (0,))


class TestWidePanelProbe:
    """The once-per-process probe licensing the wide GEMM layout."""

    def test_probe_passes_on_this_build(self, monkeypatch):
        monkeypatch.setattr(batched_module, "_WIDE_PANEL_OK", None)
        assert batched_module._wide_panels_bitstable() is True
        assert batched_module._WIDE_PANEL_OK is True

    def test_probe_covers_every_wide_plan_up_to_dim_1024(self):
        probed: dict[int, list[int]] = {}
        for sub, rest, _ in batched_module._PROBE_SHAPES:
            probed.setdefault(sub, []).append(rest)
        checked = 0
        # sub_dim and rest depend only on how many units of each radix the
        # register holds and which radices the (one- or two-unit) op targets
        for ququarts in range(6):
            for qubits in range(11 - 2 * ququarts):
                dims = (4,) * ququarts + (2,) * qubits
                if len(dims) < 1:
                    continue
                first_qubit = ququarts
                targets = [(0,), (first_qubit,), (0, 1), (0, first_qubit),
                           (first_qubit, first_qubit + 1)]
                for units in targets:
                    if max(units) >= len(dims) or len(set(units)) != len(units):
                        continue
                    plan = batched_module.build_plan(dims, units)
                    if not plan.wide:
                        continue
                    checked += 1
                    assert plan.sub_dim in probed, (dims, units)
                    rests = probed[plan.sub_dim]
                    assert min(rests) <= plan.rest <= max(rests), (dims, units)
        assert checked > 50
