"""Acceptance tests: the analytic EPS model vs the Monte Carlo engine.

The headline guarantee: for every workload in the validation set (bv, ghz
and qft at <= 6 qubits, across every compression strategy) the simulated
success probability at 2000 seeded shots either falls inside the Wilson
confidence interval around the analytic ``total_eps`` or within 10%
relative of it — and identical seeds give bit-identical results whatever
the worker count.
"""

import json

import pytest

from repro.store import ArtifactStore
from repro.evaluation import (
    DEFAULT_VALIDATION_BENCHMARKS,
    DEFAULT_VALIDATION_SIZES,
    DEFAULT_VALIDATION_STRATEGIES,
    VALIDATION_HEADERS,
    ValidationRow,
    validate_eps,
    validation_rows,
)
from repro.metrics.eps import total_eps
from repro.noise import NoiseSpec, NoisyResult


class TestAcceptance:
    """The PR's acceptance criterion, verbatim."""

    @pytest.fixture(scope="class")
    def rows(self):
        return validate_eps(
            benchmarks=DEFAULT_VALIDATION_BENCHMARKS,
            sizes=DEFAULT_VALIDATION_SIZES,
            strategies=DEFAULT_VALIDATION_STRATEGIES,
            noise="table1",
            shots=2000,
            seed=0,
        )

    def test_covers_the_full_product(self, rows):
        assert len(rows) == (
            len(DEFAULT_VALIDATION_BENCHMARKS)
            * len(DEFAULT_VALIDATION_SIZES)
            * len(DEFAULT_VALIDATION_STRATEGIES)
        )
        assert all(row.num_qubits <= 6 for row in rows)
        assert {row.strategy for row in rows} == set(DEFAULT_VALIDATION_STRATEGIES)

    def test_every_cell_brackets_or_is_within_ten_percent(self, rows):
        for row in rows:
            assert row.validated, (
                f"{row.benchmark}-{row.num_qubits} {row.strategy}: analytic "
                f"{row.analytic_eps:.4f} vs simulated {row.simulated_eps:.4f} "
                f"(CI {row.result.confidence_interval()}, "
                f"rel {row.relative_error:.3f})"
            )

    def test_analytic_column_is_the_paper_formula(self, rows):
        from repro.runner import SweepPoint

        row = rows[0]
        compiled = SweepPoint(row.benchmark, row.num_qubits, row.strategy).execute().compiled
        assert row.analytic_eps == pytest.approx(total_eps(compiled), rel=1e-12)


class TestDeterminism:
    CONFIG = {
        "benchmarks": ("bv", "ghz"),
        "sizes": (4,),
        "strategies": ("qubit_only", "eqm"),
        "shots": 600,
        "seed": 3,
    }

    def test_workers_do_not_change_the_rows(self):
        serial = validate_eps(workers=1, **self.CONFIG)
        parallel = validate_eps(workers=2, **self.CONFIG)
        assert [row.result for row in serial] == [row.result for row in parallel]
        assert [row.analytic_eps for row in serial] == [
            row.analytic_eps for row in parallel
        ]

    def test_rows_are_equal_when_worker_slices_share_spans(self):
        # 12 cells x 2 chunks at two workers: slices of three chunks, so a
        # worker's pass over one span serves two cells
        config = {"benchmarks": ("bv", "ghz", "qft"), "sizes": (4,),
                  "strategies": ("qubit_only", "eqm", "rb", "awe"),
                  "shots": 600, "chunk_size": 300, "seed": 5}
        serial = validate_eps(workers=1, **config)
        parallel = validate_eps(workers=2, **config)
        assert len(serial) == 12
        assert [row.as_dict() for row in serial] == [row.as_dict() for row in parallel]

    def test_cache_round_trip_is_identical(self, tmp_path):
        from repro.runner import CompileCache

        cache = CompileCache.from_store(ArtifactStore(tmp_path))
        fresh = validate_eps(cache=cache, **self.CONFIG)
        served = validate_eps(cache=cache, **self.CONFIG)
        assert [row.result for row in fresh] == [row.result for row in served]


class TestValidationRow:
    def _row(self, analytic, successes, shots=1000, tolerance=0.10):
        result = NoisyResult(
            shots=shots, seed=0, no_error_shots=successes,
            gate_events=0, idle_events=0,
        )
        return ValidationRow(
            benchmark="bv", num_qubits=4, strategy="eqm",
            analytic_eps=analytic, result=result, rel_tolerance=tolerance,
        )

    def test_bracketing_validates(self):
        row = self._row(analytic=0.50, successes=505)
        assert row.brackets
        assert row.validated

    def test_within_tolerance_validates_without_bracketing(self):
        # 0.56 vs 0.60: far outside the CI at 10k shots, within 10% relative
        row = self._row(analytic=0.60, successes=5600, shots=10000)
        assert not row.brackets
        assert row.relative_error == pytest.approx(0.4 / 6.0)
        assert row.validated

    def test_large_deviation_fails(self):
        row = self._row(analytic=0.80, successes=500, shots=1000)
        assert not row.validated

    def test_zero_analytic_edge_case(self):
        assert self._row(analytic=0.0, successes=0).relative_error == 0.0
        assert self._row(analytic=0.0, successes=900).relative_error == float("inf")

    def test_rows_flatten_against_headers(self):
        flattened = validation_rows([self._row(0.5, 500)])
        assert len(flattened) == 1
        assert len(flattened[0]) == len(VALIDATION_HEADERS)
        assert json.dumps(dict(zip(VALIDATION_HEADERS, flattened[0])))

    def test_as_dict_is_typed(self):
        payload = self._row(0.5, 505).as_dict()
        assert payload["validated"] is True
        assert isinstance(payload["rel_error"], float)
        assert isinstance(payload["simulated_eps"], float)
        assert set(payload) == set(VALIDATION_HEADERS)
        assert json.loads(json.dumps(payload)) == payload


class TestNoisePresetsFlow:
    def test_heterogeneous_preset_runs_and_diverges_from_table1(self):
        spec = NoiseSpec.from_preset("pessimistic")
        rows = validate_eps(
            benchmarks=("bv",), sizes=(4,), strategies=("eqm",),
            noise=spec, shots=400, seed=0,
        )
        assert len(rows) == 1
        # pessimistic noise must predict (and measure) a lower success rate
        # than the paper's closed form under table1 numbers
        from repro.runner import SweepPoint

        compiled = SweepPoint("bv", 4, "eqm").execute().compiled
        assert rows[0].analytic_eps < total_eps(compiled)
        assert rows[0].validated


class TestFQReplayAgreement:
    """FQ state-tracking replays agree with event-only EPS (PR 4 satellite).

    Event-only simulation covered FQ since PR 3; these tests close the
    remaining scenario gap by asserting the state-tracking replay counts
    the same events and that its outcome-level estimate respects the
    analytic model's lower-bound role.
    """

    @pytest.fixture(scope="class")
    def fq_compiled(self):
        from repro.runner import SweepPoint

        return SweepPoint("qft", 4, "fq").execute().compiled

    def test_replay_counts_the_same_events_as_event_only(self, fq_compiled):
        from repro.noise import simulate_noisy

        table1 = NoiseSpec.from_preset("table1")
        tracked = simulate_noisy(fq_compiled, table1, shots=150, seed=2,
                                 track_state=True)
        event_only = simulate_noisy(fq_compiled, table1, shots=150, seed=2)
        assert tracked.no_error_shots == event_only.no_error_shots
        assert tracked.gate_events == event_only.gate_events
        assert tracked.idle_events == event_only.idle_events
        assert tracked.success_probability == event_only.success_probability

    def test_event_only_eps_brackets_the_analytic_model(self, fq_compiled):
        from repro.noise import simulate_noisy

        result = simulate_noisy(fq_compiled, NoiseSpec.from_preset("table1"),
                                shots=4000, seed=0)
        low, high = result.confidence_interval(z=3.29)
        assert low <= total_eps(fq_compiled) <= high

    def test_outcome_probability_upper_bounds_eps(self, fq_compiled):
        from repro.noise import simulate_noisy

        tracked = simulate_noisy(fq_compiled, NoiseSpec.from_preset("table1"),
                                 shots=150, seed=0, track_state=True)
        assert tracked.tracked
        assert tracked.outcome_probability >= tracked.success_probability - 1e-12

    def test_fq_validates_in_the_harness(self):
        rows = validate_eps(
            benchmarks=("ghz",), sizes=(4,), strategies=("fq",),
            noise="table1", shots=4000, seed=0,
        )
        assert len(rows) == 1
        assert rows[0].validated


class TestDefaultShotBudget:
    def test_default_rides_the_vectorised_engine(self):
        from repro.evaluation import DEFAULT_VALIDATION_SHOTS

        assert DEFAULT_VALIDATION_SHOTS >= 8000


class TestTrackedValidation:
    """validate_eps(track_state=True) rides the batched tracked path and
    reports outcome-level estimators per cell."""

    CONFIG = {
        "benchmarks": ("bv",),
        "sizes": (4,),
        "strategies": ("eqm", "fq"),
        "shots": 400,
        "seed": 1,
    }

    @pytest.fixture(scope="class")
    def tracked_rows(self):
        return validate_eps(track_state=True, **self.CONFIG)

    def test_rows_are_tracked_and_validated(self, tracked_rows):
        assert len(tracked_rows) == 2
        for row in tracked_rows:
            assert row.result.tracked
            assert row.validated
            # the analytic model lower-bounds the outcome-level estimate
            assert row.result.outcome_probability >= row.simulated_eps - 1e-12

    def test_tracked_rows_carry_outcome_columns(self, tracked_rows):
        from repro.evaluation import TRACKED_VALIDATION_HEADERS, validation_headers

        assert validation_headers(tracked=True) == TRACKED_VALIDATION_HEADERS
        flattened = validation_rows(tracked_rows)
        assert len(flattened[0]) == len(TRACKED_VALIDATION_HEADERS)
        payload = tracked_rows[0].as_dict()
        assert "outcome_probability" in payload
        assert "mean_outcome_fidelity" in payload

    def test_workers_do_not_change_tracked_rows(self):
        serial = validate_eps(track_state=True, workers=1, **self.CONFIG)
        parallel = validate_eps(track_state=True, workers=2, **self.CONFIG)
        assert [row.result for row in serial] == [row.result for row in parallel]

    def test_chunk_size_preserves_every_counter(self):
        # integer counters are split-invariant; the fidelity accumulator is
        # a float sum whose chunk partials round differently, so it agrees
        # to float precision rather than bitwise across *different* splits
        whole = validate_eps(track_state=True, chunk_size=400, **self.CONFIG)
        split = validate_eps(track_state=True, chunk_size=97, **self.CONFIG)
        for one, two in zip(whole, split):
            assert one.result.no_error_shots == two.result.no_error_shots
            assert one.result.gate_events == two.result.gate_events
            assert one.result.idle_events == two.result.idle_events
            assert one.result.outcome_successes == two.result.outcome_successes
            assert one.result.outcome_fidelity_sum == pytest.approx(
                two.result.outcome_fidelity_sum, rel=1e-12
            )


class TestCompileMemo:
    """Each validation cell compiles once per process, through one LRU."""

    SHOTS = 100

    @pytest.fixture
    def compiles(self, monkeypatch):
        """A fresh trajectory backend (empty memos) and a compile counter."""
        from repro.backends import get_backend, registry
        from repro.compiler.pipeline import QompressCompiler

        monkeypatch.delitem(registry._INSTANCES, "trajectory", raising=False)
        get_backend("trajectory")
        calls = []
        compile_ = QompressCompiler.compile

        def counted(self, circuit):
            calls.append(circuit.name)
            return compile_(self, circuit)

        monkeypatch.setattr(QompressCompiler, "compile", counted)
        return calls

    @staticmethod
    def _cache(tmp_path):
        from repro.runner import CompileCache

        return CompileCache.from_store(ArtifactStore(tmp_path))

    def test_fresh_store_compiles_each_cell_once(self, tmp_path, compiles):
        rows = validate_eps(shots=self.SHOTS, cache=self._cache(tmp_path))
        assert len(rows) == 36
        assert len(compiles) == 36

    def test_warm_compiles_with_cold_shots_compile_nothing(
        self, tmp_path, compiles, monkeypatch
    ):
        from repro.backends import get_backend, registry

        cache = self._cache(tmp_path)
        validate_eps(shots=self.SHOTS, cache=cache)
        # a new process's view: empty memos, compiles warm in the store,
        # and a shot budget whose chunks the store has never seen
        monkeypatch.delitem(registry._INSTANCES, "trajectory")
        get_backend("trajectory")
        compiles.clear()
        rows = validate_eps(shots=2 * self.SHOTS, cache=cache)
        assert len(rows) == 36
        assert compiles == []

    def test_warm_external_sim_compiles_with_cold_shots_compile_nothing(
        self, tmp_path, compiles, monkeypatch
    ):
        """Store-served compiles reach every backend's chunks, not only trajectory's."""
        from repro.backends import get_backend, registry

        cells = {"benchmarks": ("bv",), "sizes": (4,),
                 "strategies": ("qubit_only", "eqm"), "backend": "external-sim"}
        cache = self._cache(tmp_path)
        monkeypatch.delitem(registry._INSTANCES, "external-sim", raising=False)
        validate_eps(shots=self.SHOTS, cache=cache, **cells)
        assert len(compiles) == 2
        monkeypatch.delitem(registry._INSTANCES, "external-sim")
        get_backend("external-sim")
        compiles.clear()
        rows = validate_eps(shots=2 * self.SHOTS, cache=cache, **cells)
        assert len(rows) == 2
        assert compiles == []

    def test_store_served_compiles_are_not_scored_again(
        self, tmp_path, compiles, monkeypatch
    ):
        """A warm compile is primed with its stored EPS report, not re-scored."""
        from repro.backends import get_backend, registry
        from repro.metrics import eps

        cells = {"benchmarks": ("bv", "ghz"), "sizes": (4,),
                 "strategies": ("qubit_only", "eqm")}
        cache = self._cache(tmp_path)
        validate_eps(shots=self.SHOTS, cache=cache, **cells)
        monkeypatch.delitem(registry._INSTANCES, "trajectory")
        get_backend("trajectory")
        compiles.clear()
        evaluations = []
        evaluate = eps.evaluate_eps

        def counted(compiled, *args, **kwargs):
            evaluations.append(compiled.circuit_name)
            return evaluate(compiled, *args, **kwargs)

        monkeypatch.setattr(eps, "evaluate_eps", counted)
        rows = validate_eps(shots=2 * self.SHOTS, cache=cache, **cells)
        assert len(rows) == 4
        assert compiles == []
        assert evaluations == []
