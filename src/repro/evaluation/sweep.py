"""Shared plumbing for the evaluation experiments.

The heavy lifting lives in :mod:`repro.runner`: experiments enumerate
:class:`~repro.runner.SweepPoint` values and hand them to a
:class:`~repro.runner.ParallelExecutor`.  The helpers here keep the legacy
call signatures (``compile_benchmark``, ``run_strategies``) while exposing
``workers`` / ``cache`` knobs that route through the engine.
"""

from __future__ import annotations

from repro.arch.device import Device
from repro.compiler.pipeline import QompressCompiler
from repro.compression.registry import get_strategy
from repro.metrics.eps import evaluate_eps
from repro.pulses.durations import GateDurationTable
from repro.runner.cache import CompileCache
from repro.runner.executor import execute_plan
from repro.runner.plan import SweepPlan
from repro.runner.records import DeviceSpec, StrategyResult, make_device
from repro.workloads.registry import build_benchmark

#: Strategies plotted in Figures 7 and 10 (EC is opt-in because of its cost).
DEFAULT_STRATEGIES: tuple[str, ...] = ("qubit_only", "fq", "eqm", "rb", "awe", "pp")


def device_for(
    kind: str,
    num_qubits: int,
    durations: GateDurationTable | None = None,
    t1_scale: float = 1.0,
    ququart_t1_ratio: float | None = None,
) -> Device:
    """Build a device of the requested kind, sized for the circuit if needed.

    ``kind`` is one of ``"grid"`` (sized to the circuit, Section 6.1),
    ``"heavy_hex"`` (65 units) or ``"ring"`` (65 units).
    """
    return make_device(
        kind, num_qubits, durations=durations,
        t1_scale=t1_scale, ququart_t1_ratio=ququart_t1_ratio,
    )


def compile_circuit(
    circuit,
    strategy: str,
    device: Device | None = None,
    device_kind: str = "grid",
    strategy_kwargs: dict | None = None,
) -> StrategyResult:
    """Compile an arbitrary (e.g. QASM-imported) circuit under one strategy.

    Unlike :func:`compile_benchmark` the circuit is supplied directly rather
    than built from the registry, so external OpenQASM programs flow through
    the exact same pipeline and EPS evaluation as the paper benchmarks.  The
    compile happens inline (a live circuit is not a cache content key).
    """
    if device is None:
        device = device_for(device_kind, circuit.num_qubits)
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
    device: Device | None = None,
    device_kind: str = "grid",
    seed: int = 0,
    strategy_kwargs: dict | None = None,
    cache: CompileCache | None = None,
) -> StrategyResult:
    """Build, compile and evaluate one benchmark under one strategy.

    When an explicit :class:`Device` object is supplied the compile happens
    inline against it (caching is unavailable — a live device is not a
    content key).  Otherwise the point routes through the runner engine and
    may be served from ``cache``.
    """
    if device is not None:
        circuit = build_benchmark(benchmark, num_qubits, seed=seed)
        strategy_object = get_strategy(strategy, **(strategy_kwargs or {}))
        compiled = QompressCompiler(device, strategy_object).compile(circuit)
        return StrategyResult(
            benchmark=benchmark,
            num_qubits=num_qubits,
            strategy=strategy,
            report=evaluate_eps(compiled),
            compiled=compiled,
        )
    plan = SweepPlan.single(
        benchmark, num_qubits, strategy,
        device=DeviceSpec(kind=device_kind), seed=seed,
        strategy_kwargs=strategy_kwargs,
    )
    return execute_plan(plan, workers=1, cache=cache)[0]


def run_strategies(
    benchmark: str,
    num_qubits: int,
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES,
    device: Device | None = None,
    device_kind: str = "grid",
    seed: int = 0,
    workers: int = 1,
    cache: CompileCache | None = None,
) -> dict[str, StrategyResult]:
    """Compile one benchmark under several strategies on the same device.

    The default path (``workers=1``, no cache, no explicit device) compiles
    serially against one shared :class:`Device` instance — the
    reproducibility reference.  With ``workers > 1`` or a ``cache`` the
    points fan out through :class:`~repro.runner.ParallelExecutor`; results
    are numerically identical because every worker rebuilds the device from
    the same spec.
    """
    if device is not None:
        # A live device cannot be shipped to workers or content-keyed; keep
        # the legacy shared-instance serial loop.
        return {
            strategy: compile_benchmark(
                benchmark, num_qubits, strategy, device=device, seed=seed
            )
            for strategy in strategies
        }
    spec = DeviceSpec(kind=device_kind)
    if workers == 1 and cache is None:
        shared = spec.build(num_qubits)
        return {
            strategy: compile_benchmark(
                benchmark, num_qubits, strategy, device=shared, seed=seed
            )
            for strategy in strategies
        }
    plan = SweepPlan.cartesian(
        (benchmark,), (num_qubits,), strategies, device=spec, seed=seed
    )
    results = execute_plan(plan, workers=workers, cache=cache)
    return {point.strategy: result for point, result in zip(plan, results)}
