"""Shared plumbing for the evaluation experiments.

A registry benchmark compiles only through :func:`~repro.runner.execute_plan`
(:func:`compile_benchmark`, :func:`run_strategies`); :func:`compile_circuit`
is the one inline path, for a live circuit or a hand-built device.
"""

from __future__ import annotations

from repro.arch.device import Device
from repro.compiler.pipeline import QompressCompiler
from repro.compression.registry import get_strategy
from repro.metrics.eps import evaluate_eps
from repro.runner.cache import CompileCache
from repro.runner.executor import execute_plan
from repro.runner.plan import SweepPlan
from repro.runner.records import StrategyResult, make_device

#: Strategies plotted in Figures 7 and 10 (EC is opt-in because of its cost).
DEFAULT_STRATEGIES: tuple[str, ...] = ("qubit_only", "fq", "eqm", "rb", "awe", "pp")


def compile_circuit(
    circuit,
    strategy: str,
    device: Device | None = None,
    device_kind: str = "grid",
    strategy_kwargs: dict | None = None,
) -> StrategyResult:
    """Compile a live (e.g. QASM-imported) circuit under one strategy, inline.

    ``device`` defaults to a ``device_kind`` device sized for the circuit.
    Nothing is memoised or cached: a live object is not a content key.
    """
    if device is None:
        device = make_device(device_kind, circuit.num_qubits)
    strategy_object = get_strategy(strategy, **(strategy_kwargs or {}))
    compiled = QompressCompiler(device, strategy_object).compile(circuit)
    return StrategyResult(
        benchmark=circuit.name,
        num_qubits=circuit.num_qubits,
        strategy=strategy,
        report=evaluate_eps(compiled),
        compiled=compiled,
    )


def compile_benchmark(
    benchmark: str,
    num_qubits: int,
    strategy: str,
    device_kind: str = "grid",
    seed: int = 0,
    strategy_kwargs: dict | None = None,
    cache: CompileCache | None = None,
) -> StrategyResult:
    """Build, compile and evaluate one benchmark under one strategy.

    The result may come from the backend's compile memo or ``cache``, so
    it may be shared with later calls: do not mutate it.
    """
    plan = SweepPlan.single(
        benchmark, num_qubits, strategy,
        device=device_kind, seed=seed, strategy_kwargs=strategy_kwargs,
    )
    return execute_plan(plan, workers=1, cache=cache)[0]


def run_strategies(
    benchmark: str,
    num_qubits: int,
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES,
    device_kind: str = "grid",
    seed: int = 0,
    workers: int = 1,
    cache: CompileCache | None = None,
) -> dict[str, StrategyResult]:
    """Compile one benchmark under several strategies on one device spec.

    Results are identical at every ``workers`` count and with or without a
    ``cache``; like :func:`compile_benchmark`'s, they must not be mutated.
    """
    plan = SweepPlan.cartesian(
        (benchmark,), (num_qubits,), strategies, device=device_kind, seed=seed
    )
    results = execute_plan(plan, workers=workers, cache=cache)
    return {point.strategy: result for point, result in zip(plan, results)}
