"""Tests for the evaluation harness and reporting utilities."""

import pytest

from repro.evaluation import (
    DEFAULT_STRATEGIES,
    compile_benchmark,
    device_for,
    figure3_state_evolution,
    figure4_exhaustive,
    figure8_gate_distribution,
    format_table,
    results_to_rows,
    run_strategies,
    save_csv,
    strategy_sweep,
    table1_durations,
)
from repro.evaluation.reporting import SWEEP_HEADERS


class TestDeviceFor:
    def test_grid_sized_to_circuit(self):
        device = device_for("grid", 12)
        assert device.num_units >= 12

    def test_heavy_hex_and_ring_are_65_units(self):
        assert device_for("heavy_hex", 10).num_units == 65
        assert device_for("ring", 10).num_units == 65

    def test_t1_adjustments(self):
        device = device_for("grid", 9, t1_scale=10.0, ququart_t1_ratio=0.5)
        assert device.qubit_t1_us == pytest.approx(1635.0)
        assert device.ququart_t1_us == pytest.approx(817.5)

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            device_for("torus", 10)


class TestSweepPlumbing:
    def test_compile_benchmark_returns_result(self):
        result = compile_benchmark("bv", 8, "qubit_only")
        assert result.benchmark == "bv"
        assert result.strategy == "qubit_only"
        assert 0 < result.report.gate_eps <= 1
        assert result.compiled.num_logical_qubits == 8

    def test_run_strategies_shares_device(self):
        results = run_strategies("cnu", 9, strategies=("qubit_only", "eqm"))
        assert set(results) == {"qubit_only", "eqm"}
        assert results["qubit_only"].compiled.device is results["eqm"].compiled.device

    def test_default_strategy_list(self):
        assert "qubit_only" in DEFAULT_STRATEGIES
        assert "fq" in DEFAULT_STRATEGIES
        assert "eqm" in DEFAULT_STRATEGIES


class TestTableAndFigureDrivers:
    def test_table1_groups(self):
        groups = table1_durations()
        assert groups["qubit_qubit"]["cx2"] == pytest.approx(251.0)
        assert groups["qudit"]["swap_in"] == pytest.approx(78.0)
        assert groups["ququart_ququart"]["swap4"] == pytest.approx(1184.0)
        assert len(groups["qubit_ququart"]) == 6

    def test_figure3_traces(self):
        traces = figure3_state_evolution(steps=11)
        assert set(traces) == {"cx2", "cx0q"}
        assert traces["cx2"]["populations"].shape == (11, 4)
        assert traces["cx0q"]["populations"].shape == (11, 8)

    def test_figure4_pairs_and_gate_eps(self):
        # qaoa_cylinder-12, max_pairs=4: both EC selection modes, pinned.
        cells = figure4_exhaustive()
        assert set(cells) == {"qubit_only", "critical", "any"}
        assert cells["qubit_only"]["pairs"] == ()
        assert cells["critical"]["pairs"] == ((3, 5), (4, 9), (6, 7), (10, 11))
        assert cells["critical"]["report"].gate_eps == 0.6375753692458478
        assert cells["any"]["pairs"] == ((1, 2), (3, 5), (4, 9), (10, 11))
        assert cells["any"]["report"].gate_eps == 0.6427281374572984

    def test_strategy_sweep_shape(self):
        results = strategy_sweep(
            benchmarks=("bv",), sizes=(6, 8), strategies=("qubit_only", "eqm")
        )
        assert set(results) == {"bv"}
        assert set(results["bv"]) == {6, 8}
        assert set(results["bv"][6]) == {"qubit_only", "eqm"}

    def test_figure8_distribution(self):
        distributions = figure8_gate_distribution(
            num_qubits=12, strategies=("qubit_only", "eqm")
        )
        assert set(distributions) == {"qubit_only", "eqm"}
        assert distributions["qubit_only"]["internal CX"] == 0
        assert sum(distributions["eqm"].values()) > 0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "strategy"], [[1, "qubit_only"], [22, "eqm"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "qubit_only" in lines[2]

    def test_format_table_validates_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_results_to_rows_and_csv(self, tmp_path):
        results = strategy_sweep(
            benchmarks=("bv",), sizes=(6,), strategies=("qubit_only",)
        )
        rows = results_to_rows(results)
        assert len(rows) == 1
        assert rows[0][0] == "bv"
        assert len(rows[0]) == len(SWEEP_HEADERS)
        path = save_csv(tmp_path / "sweep.csv", SWEEP_HEADERS, rows)
        content = path.read_text().splitlines()
        assert content[0].split(",")[0] == "benchmark"
        assert len(content) == 2
