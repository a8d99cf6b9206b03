"""End-to-end integration tests reproducing the paper's headline claims.

These tests exercise the whole stack (workload -> strategy -> compiler ->
metrics) and assert the *qualitative* results of the evaluation section:
which strategy wins, in which direction the trends go, and where crossovers
appear.  Absolute numbers are implementation-specific and are not asserted.
"""

import pytest

from repro.evaluation import (
    compile_circuit,
    figure9_qubit_error_sweep,
    figure11_t1_improvement,
    figure12_t1_ratio_sweep,
    figure13_topologies,
    run_strategies,
)
from repro.runner import make_device
from repro.workloads import build_benchmark


@pytest.fixture(scope="module")
def cuccaro_results():
    """Cuccaro adder (16 qubits) compiled under the main strategies once."""
    return run_strategies(
        "cuccaro", 16, strategies=("qubit_only", "fq", "eqm", "rb", "awe")
    )


class TestGateEPSClaims:
    def test_compression_beats_qubit_only_on_cuccaro(self, cuccaro_results):
        baseline = cuccaro_results["qubit_only"].report.gate_eps
        assert cuccaro_results["eqm"].report.gate_eps > baseline
        assert cuccaro_results["rb"].report.gate_eps > baseline

    def test_fq_baseline_is_consistently_worse(self, cuccaro_results):
        baseline = cuccaro_results["qubit_only"].report.gate_eps
        assert cuccaro_results["fq"].report.gate_eps < baseline

    def test_fq_uses_many_more_gates(self, cuccaro_results):
        assert (
            cuccaro_results["fq"].report.num_ops
            > cuccaro_results["qubit_only"].report.num_ops
        )

    def test_compression_reduces_communication_on_cuccaro(self, cuccaro_results):
        assert (
            cuccaro_results["rb"].report.num_communication_ops
            <= cuccaro_results["qubit_only"].report.num_communication_ops
        )

    def test_cnu_also_benefits(self):
        results = run_strategies("cnu", 15, strategies=("qubit_only", "eqm", "rb"))
        baseline = results["qubit_only"].report.gate_eps
        assert max(
            results["eqm"].report.gate_eps, results["rb"].report.gate_eps
        ) > baseline

    def test_rb_makes_no_compression_on_bv(self):
        results = run_strategies("bv", 12, strategies=("qubit_only", "rb"))
        assert results["rb"].report.num_compressed_pairs == 0

    def test_internal_cx_gates_appear_with_compression(self, cuccaro_results):
        from repro.gates import GateStyle

        styles = cuccaro_results["eqm"].compiled.style_counts()
        assert styles.get(GateStyle.INTERNAL_CX, 0) > 0


class TestCoherenceClaims:
    def test_compression_increases_circuit_duration(self, cuccaro_results):
        assert (
            cuccaro_results["eqm"].report.makespan_ns
            > cuccaro_results["qubit_only"].report.makespan_ns
        )

    def test_fq_has_the_worst_duration(self, cuccaro_results):
        fq = cuccaro_results["fq"].report.makespan_ns
        for strategy in ("qubit_only", "eqm", "rb", "awe"):
            assert fq > cuccaro_results[strategy].report.makespan_ns

    def test_coherence_eps_suffers_at_default_t1(self, cuccaro_results):
        # At the worst-case 1:3 T1 ratio, decoherence outweighs gate gains.
        assert (
            cuccaro_results["eqm"].report.coherence_eps
            < cuccaro_results["qubit_only"].report.coherence_eps
        )

    def test_total_eps_crossover_appears_as_ququart_t1_improves(self):
        results = figure12_t1_ratio_sweep(
            benchmarks=("cuccaro",), num_qubits=12,
            ratios=(1 / 3, 0.5, 0.75, 1.0), strategy="rb", t1_scale=10.0,
        )
        data = results["cuccaro"]
        series = data["series"]
        baseline_total = data["baseline"].report.total_eps
        totals = [series[ratio].report.total_eps for ratio in sorted(series)]
        # Monotone (non-decreasing) in the T1 ratio...
        assert all(b >= a - 1e-12 for a, b in zip(totals, totals[1:]))
        # ...and by ratio 1.0 compression should be at least competitive.
        assert totals[-1] >= baseline_total * 0.95

    def test_better_t1_improves_coherence_for_everyone(self):
        normal = run_strategies("cuccaro", 10, strategies=("qubit_only", "eqm"))
        better = figure11_t1_improvement(
            benchmarks=("cuccaro",), num_qubits=10,
            strategies=("qubit_only", "eqm"), t1_scale=10.0,
        )["cuccaro"]
        for strategy in ("qubit_only", "eqm"):
            assert (
                better[strategy].report.coherence_eps
                > normal[strategy].report.coherence_eps
            )


class TestSensitivityClaims:
    def test_compression_advantage_shrinks_with_better_qubits(self):
        sweep = figure9_qubit_error_sweep(
            benchmarks=("cuccaro",), num_qubits=12,
            error_scales=(1.0, 0.1), strategies=("qubit_only", "rb"),
        )["cuccaro"]
        advantage_at_default = (
            sweep[1.0]["rb"].report.gate_eps / sweep[1.0]["qubit_only"].report.gate_eps
        )
        advantage_with_better_qubits = (
            sweep[0.1]["rb"].report.gate_eps / sweep[0.1]["qubit_only"].report.gate_eps
        )
        assert advantage_with_better_qubits < advantage_at_default

    def test_improvements_hold_across_topologies(self):
        results = figure13_topologies(
            benchmarks=("cnu",), sizes=(9, 13), topologies=("grid", "heavy_hex", "ring"),
        )["cnu"]
        for topology, stats in results.items():
            assert stats["min"] > 0.0
            assert stats["max"] >= stats["min"]
            # EQM should not be dramatically worse than qubit-only anywhere.
            assert stats["max"] > 0.9


class TestCapacityClaim:
    def test_circuit_twice_the_device_size_compiles(self):
        # "up to 2x increased qubit capacity": 18 logical qubits on a 9-unit grid.
        result = compile_circuit(build_benchmark("cuccaro", 18), "eqm", make_device("grid", 9))
        assert result.compiled.num_logical_qubits == 18
        assert len(result.compiled.ququart_units) == 9
        assert result.report.gate_eps > 0.0

    def test_qubit_only_cannot_fit_oversized_circuit(self):
        from repro.compiler.mapping import MappingError

        with pytest.raises(MappingError):
            compile_circuit(build_benchmark("cuccaro", 18), "qubit_only", make_device("grid", 9))
