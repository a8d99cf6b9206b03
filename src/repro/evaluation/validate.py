"""EPS-validation harness: analytic model vs Monte Carlo simulation.

The paper's headline numbers all come from the closed-form EPS model in
:mod:`repro.metrics.eps`.  This harness checks that closed form against the
noise-simulation subsystem: for every (benchmark, size, strategy) cell it
compiles the circuit, computes the analytic prediction under the noise
model, simulates seeded Monte Carlo trajectories, and reports both side by
side with a Wilson confidence interval and a pass/fail verdict.

A cell *validates* when the confidence interval brackets the analytic value
or the simulated estimate lands within ``rel_tolerance`` (default 10%)
relative of it.

The cells run through :func:`~repro.noise.points.simulate_plan`, which
dispatches compiles and shot chunks alike as one
:class:`~repro.runner.SweepPlan` per stage through the shared executor, so
``workers`` parallelises across every cell's shot batches at once and a
``cache`` reuses both compiled circuits and simulated chunks across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends.registry import get_backend
from repro.evaluation.defaults import (
    DEFAULT_VALIDATION_BENCHMARKS,
    DEFAULT_VALIDATION_SHOTS,
    DEFAULT_VALIDATION_SIZES,
    DEFAULT_VALIDATION_STRATEGIES,
)
from repro.noise.model import NoiseSpec
from repro.noise.points import DEFAULT_CHUNK_SIZE, simulate_plan
from repro.noise.result import NoisyResult
from repro.runner.cache import CompileCache
from repro.runner.plan import SweepPlan
from repro.runner.records import DeviceSpec

VALIDATION_HEADERS = [
    "benchmark",
    "qubits",
    "strategy",
    "shots",
    "analytic_eps",
    "simulated_eps",
    "ci_low",
    "ci_high",
    "rel_error",
    "validated",
]

#: Extra columns reported for state-tracked validation runs.
TRACKED_VALIDATION_HEADERS = VALIDATION_HEADERS + [
    "outcome_probability",
    "mean_outcome_fidelity",
]


def validation_headers(tracked: bool = False) -> list[str]:
    """Table headers for :func:`validation_rows` output."""
    return TRACKED_VALIDATION_HEADERS if tracked else VALIDATION_HEADERS


@dataclass(frozen=True)
class ValidationRow:
    """Analytic-vs-simulated comparison for one compiled cell."""

    benchmark: str
    num_qubits: int
    strategy: str
    analytic_eps: float
    result: NoisyResult
    rel_tolerance: float = 0.10

    @property
    def simulated_eps(self) -> float:
        return self.result.success_probability

    @property
    def relative_error(self) -> float:
        """|simulated - analytic| / analytic (inf when analytic is 0)."""
        if self.analytic_eps == 0.0:
            return 0.0 if self.simulated_eps == 0.0 else float("inf")
        return abs(self.simulated_eps - self.analytic_eps) / self.analytic_eps

    @property
    def brackets(self) -> bool:
        """True when the Wilson interval contains the analytic value."""
        low, high = self.result.confidence_interval()
        return low <= self.analytic_eps <= high

    @property
    def validated(self) -> bool:
        """CI brackets the analytic EPS, or the estimate is within tolerance."""
        return self.brackets or self.relative_error <= self.rel_tolerance

    def as_row(self) -> list:
        """Display row for the text table (see :func:`validation_headers`).

        State-tracked results append the outcome-level estimators the
        batched trajectory path produces.
        """
        low, high = self.result.confidence_interval()
        row = [
            self.benchmark,
            self.num_qubits,
            self.strategy,
            self.result.shots,
            self.analytic_eps,
            self.simulated_eps,
            low,
            high,
            self.relative_error,
            "yes" if self.validated else "NO",
        ]
        if self.result.tracked:
            row.append(self.result.outcome_probability)
            row.append(self.result.mean_outcome_fidelity)
        return row

    def as_dict(self) -> dict:
        """Typed, machine-readable representation (JSON artifact rows)."""
        low, high = self.result.confidence_interval()
        payload = {
            "benchmark": self.benchmark,
            "qubits": self.num_qubits,
            "strategy": self.strategy,
            "shots": self.result.shots,
            "analytic_eps": self.analytic_eps,
            "simulated_eps": self.simulated_eps,
            "ci_low": low,
            "ci_high": high,
            "rel_error": self.relative_error,
            "validated": bool(self.validated),
        }
        if self.result.tracked:
            payload["outcome_probability"] = self.result.outcome_probability
            payload["mean_outcome_fidelity"] = self.result.mean_outcome_fidelity
        return payload


def validate_eps(
    benchmarks: tuple[str, ...] = DEFAULT_VALIDATION_BENCHMARKS,
    sizes: tuple[int, ...] = DEFAULT_VALIDATION_SIZES,
    strategies: tuple[str, ...] = DEFAULT_VALIDATION_STRATEGIES,
    noise: NoiseSpec | str = "table1",
    shots: int = DEFAULT_VALIDATION_SHOTS,
    seed: int = 0,
    device_kind: str = "grid",
    rel_tolerance: float = 0.10,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
    cache: CompileCache | None = None,
    track_state: bool = False,
    backend: str = "trajectory",
    compiler_kwargs: dict | None = None,
) -> list[ValidationRow]:
    """Sweep the validation set and compare analytic EPS to simulation.

    Returns one :class:`ValidationRow` per (benchmark, size, strategy) cell,
    in compile-plan order.  The same ``seed`` produces bit-identical rows at
    any worker count.

    ``track_state=True`` additionally evolves every trajectory's state
    vector on the batched state-tracking path, so each row also reports the
    outcome-level estimators (``outcome_probability``,
    ``mean_outcome_fidelity``) the analytic EPS lower-bounds.  Tracked
    cells compile with single-qubit merging disabled — the replayable op
    stream state tracking needs.

    ``backend`` selects the execution backend every cell's compiles and
    shot chunks run on (see :mod:`repro.backends`); ``compiler_kwargs``
    overrides the per-cell compiler flags (cross-backend comparisons pass
    ``{"merge_single_qubit_gates": False}`` so each backend simulates the
    same physical program).
    """
    if shots <= 0:
        raise ValueError("validation needs a positive shot budget per cell")
    if isinstance(noise, str):
        noise = NoiseSpec.from_preset(noise)
    if track_state:
        if not get_backend(backend).supports_track_state:
            raise ValueError(
                f"backend {backend!r} cannot track the state vector; "
                "use the 'trajectory' backend with track_state=True"
            )
    if compiler_kwargs is None and track_state:
        compiler_kwargs = {"merge_single_qubit_gates": False}
    compile_plan = SweepPlan.cartesian(
        benchmarks, sizes, strategies, device=DeviceSpec(kind=device_kind), seed=seed,
        compiler_kwargs=compiler_kwargs, backend=backend,
    )
    simulated = simulate_plan(
        compile_plan, noise, shots, seed=seed, chunk_size=chunk_size,
        track_state=track_state, workers=workers, cache=cache,
    )
    rows: list[ValidationRow] = []
    for point, (compiled_result, result) in zip(compile_plan, simulated):
        model = noise.build(compiled_result.compiled.device)
        rows.append(
            ValidationRow(
                benchmark=point.benchmark,
                num_qubits=point.num_qubits,
                strategy=point.strategy,
                analytic_eps=model.analytic_total_eps(compiled_result.compiled),
                result=result,
                rel_tolerance=rel_tolerance,
            )
        )
    return rows


def validation_rows(rows: list[ValidationRow]) -> list[list]:
    """Flatten validation rows for :func:`~repro.evaluation.format_table`."""
    return [row.as_row() for row in rows]
