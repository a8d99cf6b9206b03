"""Plain-text and CSV reporting of experiment results."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - types only; table printing loads no point types
    from repro.runner.records import StrategyResult


def format_table(headers: list[str], rows: list[list]) -> str:
    """Render a simple aligned text table."""
    columns = len(headers)
    normalised = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in normalised:
        if len(row) != columns:
            raise ValueError("every row must have one cell per header")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[index]) for index, header in enumerate(headers)),
        "  ".join("-" * widths[index] for index in range(columns)),
    ]
    for row in normalised:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4f}"
    return str(cell)


def results_to_rows(results: dict[str, dict[int, dict[str, StrategyResult]]]) -> list[list]:
    """Flatten a strategy_sweep result into CSV-style rows."""
    rows: list[list] = []
    for benchmark, by_size in results.items():
        for size, by_strategy in by_size.items():
            for strategy, result in by_strategy.items():
                rows.append(_result_row(benchmark, size, strategy, result))
    return rows


def flat_results_to_rows(results: list[StrategyResult]) -> list[list]:
    """CSV-style rows for a plan-ordered list of results (service/executor output)."""
    return [
        _result_row(result.benchmark, result.num_qubits, result.strategy, result)
        for result in results
    ]


def _result_row(benchmark, size, strategy, result: StrategyResult) -> list:
    report = result.report
    return [
        benchmark,
        size,
        strategy,
        report.gate_eps,
        report.coherence_eps,
        report.total_eps,
        report.makespan_ns,
        report.num_ops,
        report.num_communication_ops,
        report.num_compressed_pairs,
    ]


SWEEP_HEADERS = [
    "benchmark",
    "qubits",
    "strategy",
    "gate_eps",
    "coherence_eps",
    "total_eps",
    "makespan_ns",
    "ops",
    "communication_ops",
    "compressed_pairs",
]


def save_csv(path: str | Path, headers: list[str], rows: list[list]) -> Path:
    """Write rows to a CSV file and return its path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        writer.writerows(rows)
    return path
