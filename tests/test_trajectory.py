"""Tests for the Monte Carlo trajectory engine and its runner integration."""

import pickle

import pytest

from repro.store import ArtifactStore
from repro.metrics.eps import total_eps
from repro.noise import (
    NoisePoint,
    NoiseSpec,
    NoisyResult,
    TrajectoryEngine,
    shot_plan,
    simulate_noisy,
    simulate_plan,
    wilson_interval,
)
from repro.runner import CompileCache, ParallelExecutor, SweepPlan, SweepPoint, execute_plan
from repro.simulation.verify import VerificationError

TABLE1 = NoiseSpec.from_preset("table1")
IDEAL = NoiseSpec.from_preset("ideal")


@pytest.fixture(scope="module")
def compiled_bv6():
    return SweepPoint("bv", 6, "eqm").execute().compiled


@pytest.fixture(scope="module")
def replayable_ghz3():
    point = SweepPoint(
        "ghz", 3, "eqm", compiler_kwargs=(("merge_single_qubit_gates", False),)
    )
    return point.execute().compiled


class TestWilsonInterval:
    def test_requires_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    def test_stays_inside_unit_interval(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0 and 0.0 < high < 0.1
        low, high = wilson_interval(100, 100)
        assert 0.9 < low < 1.0 and high == 1.0

    def test_contains_the_point_estimate(self):
        low, high = wilson_interval(73, 200)
        assert low < 73 / 200 < high

    def test_narrows_with_more_trials(self):
        narrow = wilson_interval(800, 1000)
        wide = wilson_interval(80, 100)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]


class TestDeterminism:
    def test_same_seed_bit_identical(self, compiled_bv6):
        one = simulate_noisy(compiled_bv6, TABLE1, shots=400, seed=11)
        two = simulate_noisy(compiled_bv6, TABLE1, shots=400, seed=11)
        assert one == two

    def test_different_seed_differs(self, compiled_bv6):
        one = simulate_noisy(compiled_bv6, TABLE1, shots=400, seed=0)
        two = simulate_noisy(compiled_bv6, TABLE1, shots=400, seed=1)
        assert one.no_error_shots != two.no_error_shots or one != two

    def test_chunk_split_is_irrelevant(self, compiled_bv6):
        engine = TrajectoryEngine(compiled_bv6, TABLE1)
        whole = engine.run(300, seed=5)
        first = engine.run(120, seed=5, base_shot=0)
        second = engine.run(180, seed=5, base_shot=120)
        assert whole.no_error_shots == first.no_error_shots + second.no_error_shots
        assert whole.gate_events == first.gate_events + second.gate_events
        assert whole.idle_events == first.idle_events + second.idle_events

    def test_workers_and_chunk_size_bit_identical(self):
        plan = SweepPlan((SweepPoint("bv", 6, "eqm"),))
        serial = simulate_plan(plan, TABLE1, 600, seed=2, chunk_size=600, workers=1)[0][1]
        parallel = simulate_plan(plan, TABLE1, 600, seed=2, chunk_size=97, workers=2)[0][1]
        assert serial == parallel


class TestEngineBehaviour:
    def test_ideal_noise_never_fails(self, compiled_bv6):
        result = simulate_noisy(compiled_bv6, IDEAL, shots=50, seed=0)
        assert result.success_probability == 1.0
        assert result.gate_events == 0
        assert result.idle_events == 0

    def test_estimate_near_analytic(self, compiled_bv6):
        result = simulate_noisy(compiled_bv6, TABLE1, shots=4000, seed=0)
        low, high = result.confidence_interval(z=3.29)
        assert low <= total_eps(compiled_bv6) <= high

    def test_event_only_rejects_kraus_policy(self, compiled_bv6):
        with pytest.raises(VerificationError):
            simulate_noisy(compiled_bv6, TABLE1.with_idle_policy("kraus"),
                           shots=5, seed=0)

    def test_tracked_mode_reports_outcome_metrics(self, replayable_ghz3):
        result = simulate_noisy(replayable_ghz3, TABLE1, shots=300, seed=0,
                                track_state=True)
        assert result.tracked
        assert result.outcome_probability is not None
        assert result.mean_outcome_fidelity is not None
        # an error event can still leave the outcome intact, never the reverse
        assert result.outcome_probability >= result.success_probability - 1e-12

    def test_tracked_and_untracked_count_the_same_events(self, replayable_ghz3):
        tracked = simulate_noisy(replayable_ghz3, TABLE1, shots=200, seed=4,
                                 track_state=True)
        untracked = simulate_noisy(replayable_ghz3, TABLE1, shots=200, seed=4)
        assert tracked.no_error_shots == untracked.no_error_shots
        assert tracked.gate_events == untracked.gate_events
        assert tracked.idle_events == untracked.idle_events

    def test_tracked_mode_rejects_merged_circuits(self, compiled_bv6):
        # the default compile merges single-qubit gates into x01 ops
        with pytest.raises(VerificationError):
            TrajectoryEngine(compiled_bv6, TABLE1, track_state=True)

    def test_event_only_handles_fq(self):
        compiled = SweepPoint("ghz", 4, "fq").execute().compiled
        result = simulate_noisy(compiled, TABLE1, shots=500, seed=0)
        low, high = result.confidence_interval(z=3.29)
        assert low <= total_eps(compiled) <= high

    def test_tracked_mode_covers_fq(self):
        # the FQ baseline always schedules unmerged, so its encode/decode
        # op stream replays directly — the last scenario gap of PR 3
        compiled = SweepPoint("ghz", 4, "fq").execute().compiled
        tracked = simulate_noisy(compiled, TABLE1, shots=200, seed=4, track_state=True)
        untracked = simulate_noisy(compiled, TABLE1, shots=200, seed=4)
        assert tracked.no_error_shots == untracked.no_error_shots
        assert tracked.gate_events == untracked.gate_events
        assert tracked.idle_events == untracked.idle_events
        assert tracked.outcome_probability >= tracked.success_probability - 1e-12

    def test_rejects_negative_shots(self, compiled_bv6):
        with pytest.raises(ValueError):
            simulate_noisy(compiled_bv6, TABLE1, shots=-1)

    def test_summary_fields(self, compiled_bv6):
        summary = simulate_noisy(compiled_bv6, TABLE1, shots=100, seed=0).summary()
        assert set(summary) >= {"shots", "seed", "success_probability",
                                "ci_low", "ci_high"}


class TestNoisyResultMerge:
    def test_empty_merge_is_the_zero_shot_result(self):
        result = NoisyResult.from_chunks([], seed=7)
        assert result.shots == 0
        assert result.seed == 7
        assert result.gate_events == result.idle_events == result.no_error_shots == 0
        with pytest.raises(ValueError):
            result.success_probability

    def test_results_pickle(self, compiled_bv6):
        result = simulate_noisy(compiled_bv6, TABLE1, shots=50, seed=0)
        assert pickle.loads(pickle.dumps(result)) == result


class TestStoredNoiseChunkBytes:
    """A shot chunk's result pickles to the bytes the store already holds."""

    @pytest.mark.parametrize("point, digest", [
        (
            NoisePoint(SweepPoint("bv", 6, "eqm"), TABLE1, shots=300, base_shot=100, seed=7),
            "6006a855c7a49eb565a183d51a0653da0faabc57b66a456c80689f3139740ad1",
        ),
        (
            NoisePoint(
                SweepPoint("bv", 4, "eqm",
                           compiler_kwargs=(("merge_single_qubit_gates", False),)),
                TABLE1, shots=200, base_shot=5, seed=3, track_state=True,
            ),
            "f9a39772ec640b971f991cdf59603c80efe7942236dc6e08838d41c591e9ac22",
        ),
    ], ids=["event-only", "tracked"])
    def test_run_noise_point_pickles_to_the_pinned_bytes(self, point, digest):
        import hashlib

        from repro.backends import get_backend

        result = get_backend("trajectory").run_noise_point(point)
        data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        assert hashlib.sha256(data).hexdigest() == digest


class TestShotPlan:
    def test_chunking(self):
        point = SweepPoint("bv", 4, "qubit_only")
        plan = shot_plan(point, TABLE1, shots=1050, chunk_size=500)
        assert [p.shots for p in plan] == [500, 500, 50]
        assert [p.base_shot for p in plan] == [0, 500, 1000]

    def test_invalid_arguments(self):
        point = SweepPoint("bv", 4, "qubit_only")
        with pytest.raises(ValueError):
            shot_plan(point, TABLE1, shots=-5)
        with pytest.raises(ValueError):
            shot_plan(point, TABLE1, shots=10, chunk_size=0)

    def test_zero_shots_is_an_empty_plan(self):
        point = SweepPoint("bv", 4, "qubit_only")
        assert list(shot_plan(point, TABLE1, shots=0)) == []

    def test_points_are_hashable_and_picklable(self):
        point = NoisePoint(SweepPoint("bv", 4, "qubit_only"), TABLE1, shots=10)
        assert pickle.loads(pickle.dumps(point)) == point
        assert hash(point) == hash(pickle.loads(pickle.dumps(point)))

    def test_payload_keys(self):
        point = NoisePoint(SweepPoint("bv", 4, "qubit_only"), TABLE1,
                           shots=10, base_shot=20, seed=3)
        payload = point.payload()
        assert payload["kind"] == "noise_shots"
        assert payload["shots"] == 10
        assert payload["base_shot"] == 20
        assert payload["compile"]["benchmark"] == "bv"
        assert payload["noise"] == TABLE1.payload()


class TestRunnerIntegration:
    def test_chunks_cache_and_replay(self, tmp_path):
        point = SweepPoint("bv", 4, "qubit_only")
        plan = shot_plan(point, TABLE1, shots=400, seed=9, chunk_size=100)
        cache = CompileCache.from_store(ArtifactStore(tmp_path))
        executor = ParallelExecutor(workers=1, cache=cache)
        first = executor.run(plan)
        assert executor.last_stats.executed == 4
        second = executor.run(plan)
        assert executor.last_stats.executed == 0
        assert executor.last_stats.cache_hits == 4
        assert first == second

    def test_cached_and_fresh_merges_agree(self, tmp_path):
        point = SweepPoint("bv", 4, "qubit_only")
        cache = CompileCache.from_store(ArtifactStore(tmp_path))
        fresh = simulate_plan(SweepPlan((point,)), TABLE1, 300, seed=1, chunk_size=100,
                              cache=cache)[0][1]
        served = simulate_plan(SweepPlan((point,)), TABLE1, 300, seed=1, chunk_size=100,
                               cache=cache)[0][1]
        assert fresh == served

    def test_noise_and_compile_points_share_a_plan(self):
        compile_point = SweepPoint("bv", 4, "qubit_only")
        plan = shot_plan(compile_point, TABLE1, shots=100, chunk_size=100)
        mixed = list(plan) + [compile_point]
        results = execute_plan(mixed)
        assert results[0].shots == 100
        assert results[1].benchmark == "bv"


# ----------------------------------------------------------------------
# PR 4: chunk-batched vectorised engine vs the scalar _reference path
# ----------------------------------------------------------------------

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import repro.noise.trajectory as trajectory_module  # noqa: E402
from repro.noise.rng import GeneratorLanes, uniform_streams  # noqa: E402

#: Small compile pool the property tests draw from: every strategy family,
#: FQ included, compiled once per test session.
_POOL_SPECS = (
    ("bv", 6, "eqm"),
    ("ghz", 5, "fq"),
    ("qft", 4, "rb"),
    ("random_clifford_t", 6, "pp"),
)
_PRESETS = ("table1", "pessimistic", "heterogeneous", "ideal")
_ENGINES: dict[tuple, TrajectoryEngine] = {}


def _pooled_engine(spec_index: int, preset: str) -> TrajectoryEngine:
    key = (spec_index, preset)
    engine = _ENGINES.get(key)
    if engine is None:
        bench, size, strategy = _POOL_SPECS[spec_index]
        compiled = SweepPoint(bench, size, strategy).execute().compiled
        engine = TrajectoryEngine(compiled, NoiseSpec.from_preset(preset))
        _ENGINES[key] = engine
    return engine


class TestGoldenEquivalence:
    """The vectorised path must be bit-identical to the scalar reference."""

    @given(
        spec_index=st.integers(0, len(_POOL_SPECS) - 1),
        preset=st.sampled_from(_PRESETS),
        seed=st.one_of(st.integers(0, 2**8), st.integers(0, 2**40)),
        base_shot=st.one_of(
            st.integers(0, 5000),
            st.sampled_from([2**32 - 7, 2**32, 2**33 + 11]),
        ),
        shots=st.integers(0, 160),
    )
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_run_matches_reference(self, spec_index, preset, seed, base_shot, shots):
        engine = _pooled_engine(spec_index, preset)
        assert engine.run(shots, seed, base_shot=base_shot) == engine.run_reference(
            shots, seed, base_shot=base_shot
        )

    def test_block_splitting_is_invisible(self, compiled_bv6, monkeypatch):
        whole = TrajectoryEngine(compiled_bv6, TABLE1).run(100, seed=3)
        monkeypatch.setattr(trajectory_module, "EVENT_BLOCK_SHOTS", 7)
        blocked = TrajectoryEngine(compiled_bv6, TABLE1).run(100, seed=3)
        assert whole == blocked

    def test_uniform_streams_are_bit_exact(self):
        import numpy as np

        for seed, base, shots, draws in [
            (0, 0, 9, 6), (11, 123, 5, 40), (2**40 + 3, 0, 4, 8),
            (5, 2**32 - 2, 5, 7), (0, 2**33, 3, 3),
        ]:
            batched = uniform_streams(seed, base, shots, draws)
            reference = np.stack([
                np.random.default_rng((seed, base + i)).random(draws)
                for i in range(shots)
            ])
            assert (batched == reference).all()

    @given(seed=st.integers(0, 2**70), base=st.integers(0, 2**34),
           shots=st.integers(0, 12), draws=st.integers(0, 24))
    @settings(max_examples=40, deadline=None)
    def test_uniform_streams_property(self, seed, base, shots, draws):
        import numpy as np

        batched = uniform_streams(seed, base, shots, draws)
        assert batched.shape == (shots, draws)
        for i in range(shots):
            reference = np.random.default_rng((seed, base + i)).random(draws)
            assert (batched[i] == reference).all()


class TestChunkGeometryInvariance:
    """Any (workers, chunk_size) split of one (seed, shots) batch is identical."""

    SHOTS = 180
    SEED = 13

    @pytest.fixture(scope="class")
    def reference_result(self, compiled_bv6):
        return TrajectoryEngine(compiled_bv6, TABLE1).run_reference(self.SHOTS, self.SEED)

    @given(workers=st.integers(1, 2), chunk_size=st.integers(1, 200))
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    def test_any_split_matches_the_scalar_whole(self, reference_result, workers, chunk_size):
        split = simulate_plan(
            SweepPlan((SweepPoint("bv", 6, "eqm"),)), TABLE1, self.SHOTS,
            seed=self.SEED, chunk_size=chunk_size, workers=workers,
        )[0][1]
        assert split == reference_result

    @given(boundary=st.integers(0, 180))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_two_way_engine_split(self, compiled_bv6, boundary):
        engine = TrajectoryEngine(compiled_bv6, TABLE1)
        whole = engine.run(self.SHOTS, self.SEED)
        first = engine.run(boundary, self.SEED, base_shot=0)
        second = engine.run(self.SHOTS - boundary, self.SEED, base_shot=boundary)
        assert whole.no_error_shots == first.no_error_shots + second.no_error_shots
        assert whole.gate_events == first.gate_events + second.gate_events
        assert whole.idle_events == first.idle_events + second.idle_events


class TestDegenerateInputs:
    """Zero-shot batches, single-op circuits and all-zero noise are well-defined."""

    def test_zero_shot_run_is_an_empty_chunk(self, compiled_bv6):
        engine = TrajectoryEngine(compiled_bv6, TABLE1)
        for chunk in (engine.run(0, seed=0), engine.run_reference(0, seed=0)):
            assert chunk.shots == 0
            assert chunk.no_error_shots == 0
            assert chunk.gate_events == chunk.idle_events == 0

    def test_zero_shot_simulate_point(self, compiled_bv6):
        plan = SweepPlan((SweepPoint("bv", 6, "eqm"),))
        result = simulate_plan(plan, TABLE1, 0, seed=1)[0][1]
        assert result == NoisyResult.from_chunks([], seed=1)
        with pytest.raises(ValueError):
            result.success_probability

    def test_single_op_circuit(self):
        from repro.arch import Device, linear_topology
        from repro.circuits import QuantumCircuit
        from repro.compiler import QompressCompiler
        from repro.compression import get_strategy

        circuit = QuantumCircuit(1, name="one_x").x(0)
        compiled = QompressCompiler(
            Device(topology=linear_topology(2)), get_strategy("qubit_only")
        ).compile(circuit)
        assert len(compiled.ops) == 1
        engine = TrajectoryEngine(compiled, TABLE1)
        assert engine.run(300, seed=0) == engine.run_reference(300, seed=0)

    def test_ideal_noise_counts_exactly_zero_events(self, compiled_bv6):
        # all-zero thresholds may never fire, in either path, for any seed
        engine = TrajectoryEngine(compiled_bv6, IDEAL)
        for seed in (0, 1, 999):
            chunk = engine.run(512, seed=seed)
            assert chunk.gate_events == 0
            assert chunk.idle_events == 0
            assert chunk.no_error_shots == 512
        assert engine.run(512, seed=0) == engine.run_reference(512, seed=0)

    def test_negative_arguments_still_raise(self, compiled_bv6):
        engine = TrajectoryEngine(compiled_bv6, TABLE1)
        with pytest.raises(ValueError):
            engine.run(-1, seed=0)
        with pytest.raises(ValueError):
            engine.run_reference(-2, seed=0)
        with pytest.raises(ValueError):
            uniform_streams(0, 0, -1, 4)
        with pytest.raises(ValueError):
            uniform_streams(0, 0, 4, -1)


class TestShotIndexRange:
    """Shot indices must lie in [0, 2**64): outside it the lanes would
    seed the wrong streams, so every entry point raises ``ValueError``."""

    TOP = 2**64

    def test_last_representable_indices_are_bit_exact(self):
        import numpy as np

        batched = uniform_streams(0, self.TOP - 2, 2, 3)
        for row, index in enumerate((self.TOP - 2, self.TOP - 1)):
            assert (batched[row] == np.random.default_rng((0, index)).random(3)).all()

    @pytest.mark.parametrize("base_shot, shots", [
        (TOP - 2, 4), (TOP - 2, 3), (TOP, 1), (TOP + 5, 0), (-1, 3), (-(2**70), 1),
    ])
    def test_out_of_range_spans_raise(self, base_shot, shots):
        with pytest.raises(ValueError):
            uniform_streams(0, base_shot, shots, 1)
        with pytest.raises(ValueError):
            GeneratorLanes(0, base_shot, shots)

    @pytest.mark.parametrize("track_state", [False, True])
    def test_engine_run_rejects_the_wrapping_span(self, track_state):
        compiled = SweepPoint(
            "bv", 4, "eqm", compiler_kwargs=(("merge_single_qubit_gates", False),)
        ).execute().compiled
        engine = TrajectoryEngine(compiled, TABLE1, track_state=track_state)
        with pytest.raises(ValueError):
            engine.run(4, seed=0, base_shot=self.TOP - 2)
        with pytest.raises(ValueError):
            engine.run(4, seed=0, base_shot=-1)

    @pytest.mark.parametrize("base_shot, shots", [(-1, 2), (TOP, 2), (0, -1)])
    def test_run_and_run_reference_refuse_the_same_spans(
        self, compiled_bv6, base_shot, shots
    ):
        engine = TrajectoryEngine(compiled_bv6, TABLE1)
        for run in (engine.run, engine.run_reference):
            with pytest.raises(ValueError):
                run(shots, seed=0, base_shot=base_shot)

    def test_engine_run_matches_reference_up_to_the_last_index(self, compiled_bv6):
        engine = TrajectoryEngine(compiled_bv6, TABLE1)
        base = self.TOP - 2
        assert engine.run(2, seed=0, base_shot=base) == engine.run_reference(
            2, seed=0, base_shot=base
        )


class TestFlatChannelExports:
    """The array exports feeding the vectorised engine match the op stream."""

    def test_op_error_probabilities_match_scalar_queries(self, compiled_bv6):
        import numpy as np

        for preset in _PRESETS:
            model = NoiseSpec.from_preset(preset).build(compiled_bv6.device)
            flat = model.op_error_probabilities(compiled_bv6)
            scalar = np.array([
                model.op_error_probability(op) for op in compiled_bv6.ops
            ])
            assert (flat == scalar).all()

    def test_uncalibrated_gate_falls_back_to_the_op_fidelity(self, compiled_bv6):
        import dataclasses

        import numpy as np

        model = NoiseSpec.from_preset("heterogeneous").build(compiled_bv6.device)
        gate = next(op.gate for op in compiled_bv6.ops if len(op.units) == 2)
        calibrated = {name: p for name, p in model.gate_error.items() if name != gate}
        model = dataclasses.replace(model, gate_error=calibrated)
        flat = model.op_error_probabilities(compiled_bv6)
        scalar = np.array(
            [model.op_error_probability(op) for op in compiled_bv6.ops], dtype=np.float64
        )
        assert flat.tobytes() == scalar.tobytes()
        fallback = [
            index for index, op in enumerate(compiled_bv6.ops) if op.gate == gate
        ]
        op = compiled_bv6.ops[fallback[0]]
        factor = model.edge_error_factor[tuple(sorted(op.units))]
        assert factor != 1.0
        assert flat[fallback[0]] == min(1.0, max(0.0, (1.0 - op.fidelity) * factor))

    def test_idle_decay_channels_match_exponents(self, compiled_bv6):
        import numpy as np

        model = TABLE1.build(compiled_bv6.device)
        qubits, gammas = model.idle_decay_channels(compiled_bv6)
        exponents = model.residency_decay_exponent(compiled_bv6)
        assert qubits == sorted(exponents)
        expected = np.array([-np.expm1(-exponents[q]) for q in qubits])
        assert (gammas == expected).all()

    def test_residency_segments_are_cached(self, compiled_bv6):
        assert compiled_bv6.residency_segments() is compiled_bv6.residency_segments()


class TestZeroShotGuards:
    """Zero-shot results are valid containers, but estimates refuse them clearly."""

    def test_confidence_interval_refuses_zero_shots(self):
        result = NoisyResult.from_chunks([], seed=0)
        with pytest.raises(ValueError, match="zero-shot"):
            result.confidence_interval()

    def test_cli_simulate_rejects_zero_shots(self, capsys):
        from repro.cli import main

        code = main(["simulate", "--benchmark", "bv", "--qubits", "4", "--shots", "0"])
        assert code == 2
        assert "--shots must be positive" in capsys.readouterr().err

    def test_validate_eps_rejects_zero_shots(self):
        from repro.evaluation import validate_eps

        with pytest.raises(ValueError, match="positive shot budget"):
            validate_eps(benchmarks=("bv",), sizes=(4,),
                         strategies=("eqm",), shots=0)

    def test_zero_shot_tracked_request_stays_tracked(self):
        point = SweepPoint(
            "ghz", 3, "eqm", compiler_kwargs=(("merge_single_qubit_gates", False),)
        )
        result = simulate_plan(SweepPlan((point,)), TABLE1, 0, seed=1, track_state=True)[0][1]
        assert result.shots == 0
        assert result.tracked
        with pytest.raises(ValueError, match="zero-shot"):
            result.outcome_probability


# ----------------------------------------------------------------------
# PR 5: chunk-batched state-tracking path vs the scalar _reference path
# ----------------------------------------------------------------------

#: Tracked compile pool: every strategy family with a replayable op stream
#: (single-qubit merging disabled; FQ always schedules unmerged).
_TRACKED_POOL_SPECS = (
    ("bv", 6, "eqm", (("merge_single_qubit_gates", False),)),
    ("ghz", 5, "fq", ()),
    ("qft", 4, "rb", (("merge_single_qubit_gates", False),)),
    ("random_clifford_t", 6, "pp", (("merge_single_qubit_gates", False),)),
)
_TRACKED_ENGINES: dict[tuple, TrajectoryEngine] = {}


def _tracked_engine(spec_index: int, preset: str) -> TrajectoryEngine:
    key = (spec_index, preset)
    engine = _TRACKED_ENGINES.get(key)
    if engine is None:
        bench, size, strategy, kwargs = _TRACKED_POOL_SPECS[spec_index]
        compiled = SweepPoint(
            bench, size, strategy, compiler_kwargs=kwargs
        ).execute().compiled
        spec = NoiseSpec.from_preset(preset)
        engine = TrajectoryEngine(compiled, spec, track_state=True)
        _TRACKED_ENGINES[key] = engine
    return engine


class TestEagerPolicyValidation:
    """kraus + track_state=False fails at construction, not mid-run."""

    def test_kraus_untracked_raises_in_init(self, compiled_bv6):
        with pytest.raises(VerificationError, match="track_state=True"):
            TrajectoryEngine(compiled_bv6, TABLE1.with_idle_policy("kraus"))

    def test_kraus_tracked_constructs(self, replayable_ghz3):
        engine = TrajectoryEngine(
            replayable_ghz3, TABLE1.with_idle_policy("kraus"), track_state=True
        )
        chunk = engine.run(10, seed=0)
        assert chunk.tracked

    def test_simulate_noisy_still_surfaces_the_error(self, compiled_bv6):
        with pytest.raises(VerificationError):
            simulate_noisy(compiled_bv6, TABLE1.with_idle_policy("kraus"),
                           shots=5, seed=0)


class TestTrackedGoldenEquivalence:
    """The batched tracked path must be bit-identical to the scalar loop."""

    @given(
        spec_index=st.integers(0, len(_TRACKED_POOL_SPECS) - 1),
        preset=st.sampled_from(_PRESETS),
        seed=st.one_of(st.integers(0, 2**8), st.integers(0, 2**40)),
        base_shot=st.one_of(
            st.integers(0, 5000),
            st.sampled_from([2**32 - 7, 2**32, 2**33 + 11]),
        ),
        shots=st.integers(0, 60),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_tracked_run_matches_reference(self, spec_index, preset, seed,
                                           base_shot, shots):
        engine = _tracked_engine(spec_index, preset)
        assert engine.run(shots, seed, base_shot=base_shot) == engine.run_reference(
            shots, seed, base_shot=base_shot
        )

    @pytest.mark.parametrize("seed", [0, 7])
    def test_kraus_policy_matches_reference(self, replayable_ghz3, seed):
        engine = TrajectoryEngine(
            replayable_ghz3, TABLE1.with_idle_policy("kraus"), track_state=True
        )
        assert engine.run(200, seed) == engine.run_reference(200, seed)

    def test_tracked_block_splitting_is_invisible(self, replayable_ghz3, monkeypatch):
        whole = TrajectoryEngine(replayable_ghz3, TABLE1, track_state=True).run(90, seed=3)
        monkeypatch.setattr(trajectory_module, "TRACKED_BLOCK_AMPLITUDES", 1)
        blocked = TrajectoryEngine(replayable_ghz3, TABLE1, track_state=True).run(90, seed=3)
        assert whole == blocked

    def test_final_vectors_match_scalar_replay(self, replayable_ghz3):
        import numpy as np

        engine = TrajectoryEngine(replayable_ghz3, TABLE1, track_state=True)
        batched = engine.final_vectors(25, seed=9)
        for offset, vector in enumerate(batched):
            rng = np.random.default_rng((9, offset))
            scalar = engine._run_shot(rng).vector
            assert (vector == scalar).all()


class TestTrackedChunkGeometry:
    """Any (workers, chunk_size) split of a tracked batch reproduces the
    scalar reference chunks bit for bit."""

    SHOTS = 90
    SEED = 6
    POINT = SweepPoint(
        "ghz", 3, "eqm", compiler_kwargs=(("merge_single_qubit_gates", False),)
    )

    @pytest.fixture(scope="class")
    def reference_engine(self):
        return TrajectoryEngine(self.POINT.execute().compiled, TABLE1, track_state=True)

    @given(workers=st.integers(1, 2), chunk_size=st.integers(1, 120))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    def test_any_split_matches_reference_chunks(self, reference_engine, workers,
                                                chunk_size):
        chunks = []
        base = 0
        while base < self.SHOTS:
            count = min(chunk_size, self.SHOTS - base)
            chunks.append(reference_engine.run_reference(count, self.SEED, base_shot=base))
            base += count
        expected = NoisyResult.from_chunks(chunks, self.SEED)
        split = simulate_plan(
            SweepPlan((self.POINT,)), TABLE1, self.SHOTS, seed=self.SEED,
            chunk_size=chunk_size, workers=workers, track_state=True,
        )[0][1]
        assert split == expected
