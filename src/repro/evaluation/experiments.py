"""Experiment drivers for every table and figure in the paper.

Every sweep-shaped experiment enumerates a declarative
:class:`~repro.runner.SweepPlan` and executes it through
:func:`~repro.runner.execute_plan`, so each driver accepts ``workers`` (fan
out across processes) and ``cache`` (reuse compiled points across runs and
across experiments that share cells).
"""

from __future__ import annotations

from repro.gates.library import PHYSICAL_GATES
from repro.metrics.eps import evaluate_eps
from repro.metrics.histograms import grouped_histogram
from repro.pulses.durations import GateDurationTable
from repro.runner.cache import CompileCache
from repro.runner.executor import execute_plan
from repro.runner.plan import SweepPlan
from repro.runner.records import DeviceSpec, StrategyResult
from repro.simulation.encoding import cx_state_evolution
from repro.evaluation.sweep import DEFAULT_STRATEGIES


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
def table1_durations(durations: GateDurationTable | None = None) -> dict[str, dict[str, float]]:
    """Gate durations grouped as in Table 1 (a)-(d)."""
    table = durations or GateDurationTable()
    groups: dict[str, dict[str, float]] = {
        "qudit": {}, "qubit_qubit": {}, "qubit_ququart": {}, "ququart_ququart": {},
    }
    layout = {
        "qudit": ("x0", "x1", "x01", "cx0_in", "cx1_in", "swap_in", "enc"),
        "qubit_qubit": ("x", "cx2", "swap2"),
        "qubit_ququart": ("cx0q", "cx1q", "cxq0", "cxq1", "swapq0", "swapq1"),
        "ququart_ququart": ("cx00", "cx01", "cx10", "cx11", "swap00", "swap01", "swap11", "swap4"),
    }
    for group, names in layout.items():
        for name in names:
            if name in PHYSICAL_GATES:
                groups[group][name] = table.duration(name)
    return groups


# ----------------------------------------------------------------------
# Figure 3
# ----------------------------------------------------------------------
def figure3_state_evolution(steps: int = 41) -> dict[str, dict]:
    """State-evolution traces for CX2 and CX0q with the control set (Fig. 3).

    For CX2 the bare control starts in |1> and the target in |0>; for CX0q
    the ququart starts in |3> (encoded |11>) and the bare target in |0>.
    """
    return {
        "cx2": cx_state_evolution("cx2", (1, 0), steps=steps),
        "cx0q": cx_state_evolution("cx0q", (3, 0), steps=steps),
    }


# ----------------------------------------------------------------------
# Figure 4
# ----------------------------------------------------------------------
def figure4_exhaustive(
    num_qubits: int = 12,
    max_pairs: int = 4,
    seed: int = 0,
    workers: int = 1,
    cache: CompileCache | None = None,
) -> dict[str, dict]:
    """Exhaustive compression on a cylinder QAOA circuit (Figure 4).

    Runs the critical-path-ordered and the unordered ("any pair") selection
    modes and reports the pairs chosen and the resulting EPS for each,
    alongside the qubit-only reference.
    """
    benchmark = "qaoa_cylinder"
    plan = SweepPlan.single(benchmark, num_qubits, "qubit_only", seed=seed)
    labels = ["qubit_only"]
    for selection in ("critical", "any"):
        plan = plan + SweepPlan.single(
            benchmark, num_qubits, "ec", seed=seed,
            strategy_kwargs={
                "selection": selection,
                "max_pairs": max_pairs,
                "max_evaluations": 300,
            },
        )
        labels.append("critical" if selection == "critical" else "any")
    results = execute_plan(plan, workers=workers, cache=cache)
    return {
        label: {"report": result.report, "pairs": result.compiled.compressed_pairs}
        for label, result in zip(labels, results)
    }


# ----------------------------------------------------------------------
# Figures 7 and 10
# ----------------------------------------------------------------------
def strategy_sweep(
    benchmarks: tuple[str, ...],
    sizes: tuple[int, ...],
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES,
    device_kind: str = "grid",
    t1_scale: float = 1.0,
    seed: int = 0,
    workers: int = 1,
    cache: CompileCache | None = None,
    backend: str = "trajectory",
) -> dict[str, dict[int, dict[str, StrategyResult]]]:
    """Gate and coherence EPS for every (benchmark, size, strategy) cell.

    This single sweep backs both Figure 7 (read ``report.gate_eps``) and
    Figure 10 (read ``report.coherence_eps``).  The whole cross product is
    dispatched as one plan, so ``workers > 1`` parallelises across every
    cell, not just within one benchmark.  ``backend`` picks the execution
    backend every point runs on — ``"replay"`` serves a warm store without
    executing anything.
    """
    spec = DeviceSpec(kind=device_kind, t1_scale=t1_scale)
    plan = SweepPlan.cartesian(benchmarks, sizes, strategies, device=spec, seed=seed,
                               backend=backend)
    flat = execute_plan(plan, workers=workers, cache=cache)
    results: dict[str, dict[int, dict[str, StrategyResult]]] = {}
    for point, result in zip(plan, flat):
        results.setdefault(point.benchmark, {}).setdefault(point.num_qubits, {})[
            point.strategy
        ] = result
    return results


# ----------------------------------------------------------------------
# Figure 8
# ----------------------------------------------------------------------
def figure8_gate_distribution(
    num_qubits: int = 30,
    strategies: tuple[str, ...] = ("qubit_only", "eqm", "rb", "awe", "pp"),
    seed: int = 0,
    workers: int = 1,
    cache: CompileCache | None = None,
) -> dict[str, dict[str, int]]:
    """Gate-type distribution for the torus QAOA circuit (Figure 8)."""
    plan = SweepPlan.cartesian(("qaoa_torus",), (num_qubits,), strategies, seed=seed)
    results = execute_plan(plan, workers=workers, cache=cache)
    return {
        point.strategy: grouped_histogram(result.compiled)
        for point, result in zip(plan, results)
    }


# ----------------------------------------------------------------------
# Figure 9
# ----------------------------------------------------------------------
def figure9_qubit_error_sweep(
    benchmarks: tuple[str, ...] = ("cuccaro", "qaoa_cylinder"),
    num_qubits: int = 16,
    error_scales: tuple[float, ...] = (1.0, 0.5, 0.25, 0.1, 0.05),
    strategies: tuple[str, ...] = ("qubit_only", "eqm", "rb"),
    seed: int = 0,
    workers: int = 1,
    cache: CompileCache | None = None,
) -> dict[str, dict[float, dict[str, StrategyResult]]]:
    """Gate EPS as the bare-qubit gate error improves (Figure 9).

    Ququart gate error stays constant while the error of qubit-only gates is
    multiplied by each value in ``error_scales``.
    """
    plan = SweepPlan()
    for scale in error_scales:
        spec = DeviceSpec(kind="grid", qubit_error_scale=scale)
        plan = plan + SweepPlan.cartesian(
            benchmarks, (num_qubits,), strategies, device=spec, seed=seed
        )
    flat = execute_plan(plan, workers=workers, cache=cache)
    results: dict[str, dict[float, dict[str, StrategyResult]]] = {}
    for point, result in zip(plan, flat):
        scale = point.device.qubit_error_scale
        results.setdefault(point.benchmark, {}).setdefault(scale, {})[
            point.strategy
        ] = result
    return results


# ----------------------------------------------------------------------
# Figure 11
# ----------------------------------------------------------------------
def figure11_t1_improvement(
    benchmarks: tuple[str, ...] = ("cuccaro", "qaoa_torus"),
    num_qubits: int = 16,
    t1_scale: float = 10.0,
    strategies: tuple[str, ...] = ("qubit_only", "eqm", "rb"),
    seed: int = 0,
    workers: int = 1,
    cache: CompileCache | None = None,
) -> dict[str, dict[str, StrategyResult]]:
    """Coherence EPS with 10x better T1 for both qubits and ququarts (Fig. 11)."""
    spec = DeviceSpec(kind="grid", t1_scale=t1_scale)
    plan = SweepPlan.cartesian(benchmarks, (num_qubits,), strategies, device=spec, seed=seed)
    flat = execute_plan(plan, workers=workers, cache=cache)
    results: dict[str, dict[str, StrategyResult]] = {}
    for point, result in zip(plan, flat):
        results.setdefault(point.benchmark, {})[point.strategy] = result
    return results


# ----------------------------------------------------------------------
# Figure 12
# ----------------------------------------------------------------------
def figure12_t1_ratio_sweep(
    benchmarks: tuple[str, ...] = ("cuccaro", "cnu", "qaoa_torus"),
    num_qubits: int = 25,
    ratios: tuple[float, ...] = (1 / 3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    strategy: str = "eqm",
    t1_scale: float = 10.0,
    seed: int = 0,
    workers: int = 1,
    cache: CompileCache | None = None,
) -> dict[str, dict]:
    """Total EPS versus the ququart/qubit T1 ratio, with crossovers (Fig. 12).

    Following the paper ("using the circuit durations found here, we plot the
    change in success rate due to circuit duration as the ratio of T1 time
    changes"), each benchmark is compiled *once* per strategy and the same
    compiled circuit is then re-evaluated under devices whose ququart T1 is
    ``ratio`` times the qubit T1.  The crossover is the smallest ratio at
    which the compressed circuit's total EPS matches the qubit-only total.
    """
    from dataclasses import replace

    spec = DeviceSpec(kind="grid", t1_scale=t1_scale)
    plan = SweepPlan.cartesian(
        benchmarks, (num_qubits,), ("qubit_only", strategy), device=spec, seed=seed
    )
    flat = execute_plan(plan, workers=workers, cache=cache)
    compiled_cells: dict[str, dict[str, StrategyResult]] = {}
    for point, result in zip(plan, flat):
        compiled_cells.setdefault(point.benchmark, {})[point.strategy] = result

    results: dict[str, dict] = {}
    for benchmark in benchmarks:
        baseline = compiled_cells[benchmark]["qubit_only"]
        compiled_once = compiled_cells[benchmark][strategy]
        baseline_device = compiled_once.compiled.device
        series = {}
        crossover = None
        for ratio in ratios:
            device = baseline_device.with_ququart_t1_ratio(ratio)
            revalued = replace(compiled_once.compiled, device=device)
            point = StrategyResult(
                benchmark=benchmark,
                num_qubits=num_qubits,
                strategy=strategy,
                report=evaluate_eps(revalued),
                compiled=revalued,
            )
            series[ratio] = point
            if crossover is None and point.report.total_eps >= baseline.report.total_eps:
                crossover = ratio
        results[benchmark] = {
            "baseline": baseline,
            "series": series,
            "crossover_ratio": crossover,
        }
    return results


# ----------------------------------------------------------------------
# Figure 13
# ----------------------------------------------------------------------
def figure13_topologies(
    benchmarks: tuple[str, ...] = ("cnu", "qaoa_cylinder"),
    sizes: tuple[int, ...] = (8, 12, 16, 20),
    topologies: tuple[str, ...] = ("grid", "heavy_hex", "ring"),
    strategy: str = "eqm",
    seed: int = 0,
    workers: int = 1,
    cache: CompileCache | None = None,
) -> dict[str, dict[str, dict]]:
    """Ranges of gate-EPS improvement across device topologies (Figure 13)."""
    plan = SweepPlan()
    for topology in topologies:
        plan = plan + SweepPlan.cartesian(
            benchmarks, sizes, ("qubit_only", strategy),
            device=DeviceSpec(kind=topology), seed=seed,
        )
    flat = execute_plan(plan, workers=workers, cache=cache)
    cells: dict[tuple[str, str, int], dict[str, StrategyResult]] = {}
    for point, result in zip(plan, flat):
        cells.setdefault((point.benchmark, point.device.kind, point.num_qubits), {})[
            point.strategy
        ] = result

    results: dict[str, dict[str, dict]] = {}
    for benchmark in benchmarks:
        results[benchmark] = {}
        for topology in topologies:
            ratios: list[float] = []
            per_size: dict[int, float] = {}
            for size in sizes:
                outcome = cells[(benchmark, topology, size)]
                baseline = outcome["qubit_only"].report.gate_eps
                improved = outcome[strategy].report.gate_eps
                ratio = improved / baseline if baseline > 0 else float("inf")
                ratios.append(ratio)
                per_size[size] = ratio
            results[benchmark][topology] = {
                "ratios": per_size,
                "min": min(ratios),
                "max": max(ratios),
                "mean": sum(ratios) / len(ratios),
            }
    return results
