"""Smoke tests that keep the shipped examples runnable."""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_examples_directory_contents(self):
        names = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        assert {"quickstart.py", "adder_compression.py", "qaoa_topologies.py",
                "t1_crossover.py", "pulse_gates.py", "qasm_roundtrip.py"} <= names
        qasm_files = {path.name for path in EXAMPLES_DIR.glob("*.qasm")}
        assert {"teleport.qasm", "qft4.qasm"} <= qasm_files

    def test_teleport_example_feeds_forward_with_fidelity_one(self):
        from repro.circuits.qasm import parse_qasm
        from repro.compiler.pipeline import QompressCompiler
        from repro.compression import get_strategy
        from repro.noise.model import NoiseSpec
        from repro.noise.trajectory import TrajectoryEngine
        from repro.runner import make_device

        circuit = parse_qasm((EXAMPLES_DIR / "teleport.qasm").read_text())
        assert circuit.name == "teleport"
        assert any(gate.condition is not None for gate in circuit)
        compiled = QompressCompiler(
            make_device("grid", circuit.num_qubits), get_strategy("eqm"),
            merge_single_qubit_gates=False,
        ).compile(circuit)
        assert compiled.is_dynamic
        shots = 32
        engine = TrajectoryEngine(
            compiled, NoiseSpec(gate_error_scale=0.0, t1_scale=1e15),
            track_state=True,
        )
        chunk = engine.run(shots, seed=7)
        assert chunk.outcome_fidelity_sum == pytest.approx(float(shots))

    def test_qasm_roundtrip_runs(self, capsys):
        module = _load_example("qasm_roundtrip")
        module.main()
        output = capsys.readouterr().out
        assert "round-trip ok" in output
        assert "opaque" in output

    def test_quickstart_runs(self, capsys):
        module = _load_example("quickstart")
        module.main()
        output = capsys.readouterr().out
        assert "gate EPS" in output
        assert "qubit_only" in output
        assert "eqm" in output

    def test_adder_example_compare_runs(self, capsys):
        module = _load_example("adder_compression")
        module.compare_strategies(num_qubits=10)
        output = capsys.readouterr().out
        assert "Cuccaro adder" in output
        assert "rb" in output

    def test_adder_example_verification_runs(self, capsys):
        module = _load_example("adder_compression")
        module.verify_small_adder()
        output = capsys.readouterr().out
        assert "correctly" in output

    def test_qaoa_topologies_runs(self, capsys, monkeypatch):
        module = _load_example("qaoa_topologies")
        monkeypatch.setattr(module, "SIZES", (12,))
        module.main()
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if line.startswith("qaoa_")]
        assert {(row[0], row[2]) for row in rows} == {
            (benchmark, topology)
            for benchmark in module.BENCHMARKS for topology in module.TOPOLOGIES
        }

    @pytest.mark.parametrize("name,symbol", [
        ("qaoa_topologies", "main"),
        ("t1_crossover", "main"),
        ("pulse_gates", "show_table1"),
    ])
    def test_other_examples_importable(self, name, symbol):
        module = _load_example(name)
        assert callable(getattr(module, symbol))

    def test_pulse_example_table_section(self, capsys):
        module = _load_example("pulse_gates")
        module.show_table1()
        output = capsys.readouterr().out
        assert "cx2" in output
