"""Dynamic circuits end to end: QASM 3 frontend, decode-before-measure
compilation, branch-complete checking, and golden execution equality."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends.external import ExternalSimBackend
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.qasm import QasmError, circuit_to_qasm, parse_qasm
from repro.compiler.pipeline import QompressCompiler
from repro.compression import get_strategy
from repro.dynamic import (
    branch_distribution,
    circuit_to_qasm3,
    parse_qasm3,
    reduced_density,
    simulate_dynamic,
)
from repro.evaluation import cross_backend_check
from repro.noise import simulate_plan
from repro.noise.model import NoiseSpec
from repro.noise.trajectory import TrajectoryEngine
from repro.runner import SweepPlan, SweepPoint, make_device
from repro.workloads import build_benchmark, teleport_chain

ZERO_NOISE = NoiseSpec(gate_error_scale=0.0, t1_scale=1e15)
TABLE1 = NoiseSpec.from_preset("table1")
ALL_STRATEGIES = ("qubit_only", "eqm", "fq", "rb", "awe", "pp", "ec")


def _compile(circuit, strategy, **kwargs):
    kwargs.setdefault("merge_single_qubit_gates", False)
    device = make_device("grid", circuit.num_qubits)
    return QompressCompiler(device, get_strategy(strategy), **kwargs).compile(circuit)


@pytest.fixture(scope="module")
def teleport3():
    return build_benchmark("teleport", 3)


# ----------------------------------------------------------------------
# OpenQASM 3 frontend
# ----------------------------------------------------------------------
class TestQasm3Frontend:
    @pytest.mark.parametrize("size", [3, 4, 6])
    def test_teleport_roundtrip_exact(self, size):
        circuit = teleport_chain(size)
        text = circuit_to_qasm3(circuit)
        reimported = parse_qasm3(text)
        assert reimported == circuit
        assert reimported.name == circuit.name
        assert circuit_to_qasm3(reimported) == text

    def test_parse_qasm_dispatches_version_3(self, teleport3):
        text = circuit_to_qasm3(teleport3)
        assert "OPENQASM 3;" in text
        assert parse_qasm(text) == teleport3

    def test_qasm2_roundtrip_of_dynamic_circuit(self, teleport3):
        assert parse_qasm(circuit_to_qasm(teleport3)) == teleport3

    def test_both_measurement_spellings(self):
        source = """
        OPENQASM 3;
        include "stdgates.inc";
        qubit[2] q;
        bit[2] c;
        h q[0];
        measure q[0] -> c[0];
        c[1] = measure q[1];
        """
        circuit = parse_qasm3(source)
        measures = [gate for gate in circuit if gate.is_measurement]
        assert [gate.cbits for gate in measures] == [(0,), (1,)]

    def test_int_constant_as_condition_value(self):
        source = """
        OPENQASM 3;
        qubit[2] q;
        bit[1] c;
        int[4] flip = 1;
        c[0] = measure q[0];
        if (c == flip) x q[1];
        """
        circuit = parse_qasm3(source)
        assert circuit[-1].condition == ((0,), 1)

    def test_if_block_conditions_every_statement(self):
        source = """
        OPENQASM 3;
        qubit[2] q;
        bit[1] c;
        c[0] = measure q[0];
        if (c == 1) { x q[1]; z q[1]; reset q[0]; }
        """
        circuit = parse_qasm3(source)
        conditioned = [gate for gate in circuit if gate.condition == ((0,), 1)]
        assert [gate.name for gate in conditioned] == ["x", "z", "reset"]

    def test_serializer_groups_condition_runs(self, teleport3):
        doubled = QuantumCircuit(2, "pair")
        doubled.add_creg("c", 1)
        doubled.measure_mid(0, 0)
        doubled.add("x", 1, condition=((0,), 1))
        doubled.add("z", 1, condition=((0,), 1))
        text = circuit_to_qasm3(doubled)
        assert "if (c == 1) {" in text
        # a single conditioned gate uses the statement form, not a block
        assert "{" not in circuit_to_qasm3(teleport3).replace("if (c1 == 1) x", "")

    def test_qubit_and_bit_declarations_default_to_size_one(self):
        source = """
        OPENQASM 3;
        qubit a;
        qubit b;
        bit m;
        cx a, b;
        m[0] = measure b;
        """
        circuit = parse_qasm3(source)
        assert circuit.num_qubits == 2
        assert circuit[-1].cbits == (0,)

    @pytest.mark.parametrize("source,fragment", [
        ("OPENQASM 2.0;\nqreg q[1];\n", "not an OpenQASM 3 program"),
        ('OPENQASM 3;\ninclude "qelib1.inc";\nqubit[1] q;\nx q[0];',
         "only stdgates.inc"),
        ("OPENQASM 3;\nqubit[1] q;\nbit[1] c;\nif (d == 1) x q[0];",
         "unknown classical register"),
        ("OPENQASM 3;\nqubit[1] q;\nbit[1] c;\nif (c == 2) x q[0];",
         "does not fit"),
        ("OPENQASM 3;\nqubit[1] q;\nbit[1] c;\nif (c == 1) { if (c == 1) x q[0]; }",
         "cannot appear inside an if block"),
        ("OPENQASM 3;\nqubit[1] q;\nbit[1] c;\nif (c == 1) { bit[1] d; }",
         "cannot appear inside an if block"),
        ("OPENQASM 3;\nqubit[1] q;\nint[2] k = 9;",
         "does not fit"),
    ])
    def test_rejects_unsupported_constructs(self, source, fragment):
        with pytest.raises(QasmError, match=fragment):
            parse_qasm3(source)

    def test_errors_carry_line_and_column(self):
        source = "OPENQASM 3;\nqubit[2] q;\nbadgate q[0];\n"
        with pytest.raises(QasmError, match=r"line 3, column 1"):
            parse_qasm3(source)


# ----------------------------------------------------------------------
# decode-before-measure compilation
# ----------------------------------------------------------------------
class TestDecodeBeforeMeasure:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_compiles_and_marks_dynamic(self, teleport3, strategy):
        compiled = _compile(teleport3, strategy)
        assert compiled.is_dynamic
        gates = [op.gate for op in compiled.ops]
        assert gates.count("measure_mid") == 2
        assert gates.count("measure") == 1

    def test_qubit_only_never_decodes(self, teleport3):
        compiled = _compile(teleport3, "qubit_only")
        assert not any(op.gate in ("dec", "enc") for op in compiled.ops)

    def test_paired_mid_measure_is_decoded_and_reencoded(self, teleport3):
        compiled = _compile(teleport3, "eqm")
        ordered = sorted(compiled.ops, key=lambda op: op.start_ns)
        gates = [op.gate for op in ordered]
        # the measured qubit sharing a ququart gets a dec before and an enc
        # after its mid-circuit measurement
        paired = [
            index for index, op in enumerate(ordered)
            if op.gate == "measure_mid" and op.units[0] in compiled.ququart_units
        ]
        assert paired, "eqm should place a measured qubit on a ququart"
        for index in paired:
            assert "dec" in gates[:index]
            assert "enc" in gates[index + 1:]

    def test_transient_decode_preserves_layout(self, teleport3):
        compiled = _compile(teleport3, "eqm")
        assert compiled.initial_placement == compiled.final_placement
        for op in compiled.ops:
            if op.gate in ("dec", "enc"):
                assert op.moves == {}

    def test_permanent_decode_moves_the_partner(self, teleport3):
        compiled = _compile(teleport3, "eqm", reencode_after_measure=False)
        decodes = [op for op in compiled.ops if op.gate == "dec"]
        assert decodes and any(op.moves for op in decodes)
        assert not any(op.gate == "enc" for op in compiled.ops)
        engine = TrajectoryEngine(compiled, ZERO_NOISE, track_state=True)
        chunk = engine.run(16, seed=2)
        assert chunk.outcome_fidelity_sum == pytest.approx(16.0)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_conditions_survive_compilation(self, teleport3, strategy):
        compiled = _compile(teleport3, strategy)
        conditions = [op.condition for op in compiled.ops if op.condition is not None]
        assert sorted(conditions) == [((0,), 1), ((1,), 1)]
        # routing movement stays branch-free: communication ops are never
        # classically conditioned
        assert all(
            op.condition is None for op in compiled.ops if op.is_communication
        )

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_conditioned_ops_wait_for_their_bits(self, teleport3, strategy):
        compiled = _compile(teleport3, strategy)
        writes_done = {}
        for op in sorted(compiled.ops, key=lambda op: op.start_ns):
            for bit in op.cbits:
                writes_done[bit] = op.start_ns + op.duration_ns
            if op.condition is not None:
                for bit in op.condition[0]:
                    assert op.start_ns >= writes_done[bit]

    def test_crowded_decode_shifts_a_hole_inward(self):
        # size 8 on a 3x3 grid packs the pairs so the measured unit has no
        # free adjacent slot; routing must vacate one instead of failing
        circuit = build_benchmark("teleport", 8)
        compiled = _compile(circuit, "eqm")
        engine = TrajectoryEngine(compiled, ZERO_NOISE, track_state=True)
        chunk = engine.run(8, seed=5)
        assert chunk.outcome_fidelity_sum == pytest.approx(8.0)


# ----------------------------------------------------------------------
# branch-complete ideal checking
# ----------------------------------------------------------------------
class TestSimulateDynamic:
    def test_teleport_branch_distribution(self, teleport3):
        branches = simulate_dynamic(teleport3)
        assert sum(branch.probability for branch in branches) == pytest.approx(1.0)
        # the two correction bits are uniformly random
        patterns = {}
        for branch in branches:
            key = (branch.bit(0), branch.bit(1))
            patterns[key] = patterns.get(key, 0.0) + branch.probability
        assert len(patterns) == 4
        for probability in patterns.values():
            assert probability == pytest.approx(0.25)

    def test_every_branch_teleports_the_payload(self):
        circuit = teleport_chain(3)
        trimmed = QuantumCircuit(3, "no-final")
        for name, size in circuit.cregs:
            trimmed.add_creg(name, size)
        for gate in circuit:
            if not (gate.is_measurement and gate.name == "measure"):
                trimmed.append(gate)
        payload = np.array([np.cos(0.15), np.sin(0.15)], dtype=complex)
        for branch in simulate_dynamic(trimmed):
            rho = reduced_density(branch.vector, (2, 2, 2), (2,))
            assert np.real(payload.conj() @ rho @ payload) == pytest.approx(1.0)

    def test_static_circuit_yields_one_branch(self):
        from repro.simulation import simulate_logical_circuit

        circuit = build_benchmark("ghz", 3)
        branches = simulate_dynamic(circuit)
        assert len(branches) == 1
        assert branches[0].probability == pytest.approx(1.0)
        np.testing.assert_allclose(
            branches[0].vector, simulate_logical_circuit(circuit), atol=1e-12
        )

    def test_reset_rejoins_branches_at_zero(self):
        circuit = QuantumCircuit(1, "flip-reset")
        circuit.h(0)
        circuit.reset(0)
        branches = simulate_dynamic(circuit)
        assert sum(branch.probability for branch in branches) == pytest.approx(1.0)
        for branch in branches:
            np.testing.assert_allclose(branch.vector, [1.0, 0.0], atol=1e-12)

    def test_branch_distribution_helper_merges_cregs(self, teleport3):
        distribution = branch_distribution(simulate_dynamic(teleport3))
        assert sum(distribution.values()) == pytest.approx(1.0)
        # terminal readout statistics: bit 2 is |1> with sin^2(0.15)
        excited = sum(p for creg, p in distribution.items() if (creg >> 2) & 1)
        assert excited == pytest.approx(np.sin(0.15) ** 2)


# ----------------------------------------------------------------------
# execution: golden bit-equality and chunk geometry
# ----------------------------------------------------------------------
_DYNAMIC_POOL: dict = {}


def _pooled_engine(strategy: str, policy: str) -> TrajectoryEngine:
    key = (strategy, policy)
    engine = _DYNAMIC_POOL.get(key)
    if engine is None:
        compiled = _compile(build_benchmark("teleport", 4), strategy)
        spec = NoiseSpec.from_preset("table1")
        if policy == "kraus":
            spec = NoiseSpec(
                gate_error_scale=spec.gate_error_scale,
                t1_scale=spec.t1_scale, idle_policy="kraus",
            )
        engine = TrajectoryEngine(compiled, spec, track_state=True)
        _DYNAMIC_POOL[key] = engine
    return engine


class TestDynamicGoldenEquality:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("policy", ["worst_case", "kraus"])
    def test_run_matches_reference(self, strategy, policy):
        engine = _pooled_engine(strategy, policy)
        assert engine.run(48, seed=11) == engine.run_reference(48, seed=11)

    @pytest.mark.parametrize("strategy", ["qubit_only", "eqm", "fq"])
    def test_zero_noise_fidelity_is_one(self, teleport3, strategy):
        compiled = _compile(teleport3, strategy)
        engine = TrajectoryEngine(compiled, ZERO_NOISE, track_state=True)
        chunk = engine.run(40, seed=1)
        assert chunk.no_error_shots == 40
        assert chunk.outcome_fidelity_sum == pytest.approx(40.0)

    @given(
        strategy=st.sampled_from(["qubit_only", "eqm", "fq"]),
        seed=st.one_of(st.integers(0, 2**8), st.integers(0, 2**40)),
        base_shot=st.one_of(st.integers(0, 5000),
                            st.sampled_from([2**32 - 7, 2**33 + 11])),
        shots=st.integers(0, 60),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_golden_equality_property(self, strategy, seed, base_shot, shots):
        engine = _pooled_engine(strategy, "worst_case")
        assert engine.run(shots, seed, base_shot=base_shot) == engine.run_reference(
            shots, seed, base_shot=base_shot
        )


class TestDynamicChunkInvariance:
    SHOTS = 90
    SEED = 17

    @pytest.fixture(scope="class")
    def reference_result(self):
        compiled = SweepPoint("teleport", 3, "eqm").execute().compiled
        return TrajectoryEngine(compiled, TABLE1).run_reference(self.SHOTS, self.SEED)

    @given(workers=st.integers(1, 2), chunk_size=st.integers(1, 100))
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    def test_any_split_matches_the_scalar_whole(self, reference_result, workers,
                                                chunk_size):
        split = simulate_plan(
            SweepPlan((SweepPoint("teleport", 3, "eqm"),)), TABLE1, self.SHOTS,
            seed=self.SEED, chunk_size=chunk_size, workers=workers,
        )[0][1]
        assert split == reference_result

    @given(boundary=st.integers(0, 60))
    @settings(max_examples=12, deadline=None)
    def test_two_way_tracked_split(self, boundary):
        engine = _pooled_engine("eqm", "worst_case")
        whole = engine.run(60, self.SEED)
        first = engine.run(boundary, self.SEED, base_shot=0)
        second = engine.run(60 - boundary, self.SEED, base_shot=boundary)
        assert whole.no_error_shots == first.no_error_shots + second.no_error_shots
        assert whole.gate_events == first.gate_events + second.gate_events
        assert whole.outcome_fidelity_sum == pytest.approx(
            first.outcome_fidelity_sum + second.outcome_fidelity_sum
        )


# ----------------------------------------------------------------------
# cross-backend verification
# ----------------------------------------------------------------------
class TestDynamicCrosscheck:
    def test_external_sim_roundtrips_the_dynamic_program(self, teleport3):
        compiled = ExternalSimBackend().compile(
            teleport3, make_device("grid", 3), get_strategy("eqm")
        )
        assert compiled.is_dynamic
        assert "if(" in compiled.to_qasm()

    def test_crosscheck_agrees_on_teleport(self):
        rows = cross_backend_check(
            benchmarks=("teleport",), sizes=(3,),
            strategies=("qubit_only", "eqm"), shots=1500, seed=3,
        )
        assert len(rows) == 2
        for row in rows:
            assert row.agree, (
                f"{row.strategy}: backends disagree beyond tolerance "
                f"({row.max_rel_diff:.3f})"
            )
