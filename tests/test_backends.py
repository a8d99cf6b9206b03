"""Tests for the pluggable execution-backend registry and its backends.

Covers the registry error paths (unknown name, duplicate registration,
contract violations surfacing as typed errors), the ExecutionPoint
protocol boundary, the replay backend (warm bit-identical serving with
zero executed points, cold typed miss), the external-sim backend (QASM
round-trip, independent estimates, track-state refusal) and the
cross-backend verification harness.
"""

import dataclasses

import pytest

from repro.backends import (
    BackendContractError,
    BackendError,
    CompiledHandle,
    DuplicateBackendError,
    ExecutionBackend,
    LRUMemo,
    ReplayMissError,
    UnknownBackendError,
    ensure_noisy_result,
    get_backend,
    list_backends,
    register_backend,
    unregister_backend,
)
from repro.evaluation import CrossCheckRow, cross_backend_check
from repro.noise.model import NoiseSpec
from repro.noise.points import shot_plan, simulate_point
from repro.noise.result import NoisyResult
from repro.runner import (
    CACHE_DIR_ENV,
    CompileCache,
    ExecutionPoint,
    ParallelExecutor,
    SweepPlan,
    SweepPoint,
    execute_plan,
    execute_point,
    freeze_kwargs,
    point_key,
)
from repro.service import SweepService
from repro.store import ArtifactStore

NOISE = NoiseSpec.from_preset("table1")


def _point(backend: str = "trajectory", **overrides) -> SweepPoint:
    fields = {"benchmark": "bv", "num_qubits": 4, "strategy": "qubit_only",
              "backend": backend}
    fields.update(overrides)
    fields["compiler_kwargs"] = freeze_kwargs(fields.get("compiler_kwargs"))
    return SweepPoint(**fields)


class TestRegistry:
    def test_builtins_are_registered(self):
        names = list_backends()
        assert "trajectory" in names
        assert "replay" in names
        assert "external-sim" in names

    def test_get_backend_is_a_singleton(self):
        assert get_backend("trajectory") is get_backend("trajectory")

    def test_unknown_backend_raises_typed_error(self):
        with pytest.raises(UnknownBackendError, match="unknown execution backend"):
            get_backend("does-not-exist")

    def test_unknown_backend_error_lists_registered_names(self):
        with pytest.raises(UnknownBackendError, match="trajectory"):
            get_backend("does-not-exist")

    def test_unknown_backend_error_is_a_key_error(self):
        with pytest.raises(KeyError):
            get_backend("does-not-exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(DuplicateBackendError, match="already registered"):
            @register_backend("trajectory")
            class Impostor(ExecutionBackend):
                name = "trajectory"

    def test_non_backend_class_rejected(self):
        with pytest.raises(TypeError, match="must subclass"):
            @register_backend("toy-not-a-backend")
            class NotABackend:
                pass

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_backend("")

    def test_register_and_unregister_roundtrip(self):
        @register_backend("toy-roundtrip")
        class ToyBackend(ExecutionBackend):
            name = "toy-roundtrip"

        try:
            assert "toy-roundtrip" in list_backends()
            assert get_backend("toy-roundtrip").content_name == "toy-roundtrip"
        finally:
            unregister_backend("toy-roundtrip")
        assert "toy-roundtrip" not in list_backends()
        with pytest.raises(UnknownBackendError):
            get_backend("toy-roundtrip")

    def test_content_name_defaults_to_name(self):
        class ToyBackend(ExecutionBackend):
            name = "toy-content"

        assert ToyBackend.content_name == "toy-content"

    def test_replay_advertises_trajectory_content_name(self):
        assert get_backend("replay").content_name == "trajectory"
        assert get_backend("trajectory").content_name == "trajectory"
        assert get_backend("external-sim").content_name == "external-sim"


class TestResultContract:
    def _result(self, **overrides) -> NoisyResult:
        fields = {"shots": 10, "seed": 0, "no_error_shots": 8,
                  "gate_events": 3, "idle_events": 1}
        fields.update(overrides)
        return NoisyResult(**fields)

    def test_valid_result_passes_through(self):
        result = self._result()
        assert ensure_noisy_result(result, "toy") is result

    def test_wrong_type_raises_contract_error(self):
        with pytest.raises(BackendContractError, match="requires a .*NoisyResult"):
            ensure_noisy_result({"shots": 10}, "toy")

    def test_contract_error_is_a_backend_error_and_type_error(self):
        with pytest.raises(BackendError):
            ensure_noisy_result(None, "toy")
        with pytest.raises(TypeError):
            ensure_noisy_result(None, "toy")

    def test_negative_counter_rejected(self):
        with pytest.raises(BackendContractError, match="gate_events=-1"):
            ensure_noisy_result(self._result(gate_events=-1), "toy")

    def test_non_integer_counter_rejected(self):
        with pytest.raises(BackendContractError, match="shots=2.5"):
            ensure_noisy_result(self._result(shots=2.5), "toy")

    def test_bool_counter_rejected(self):
        with pytest.raises(BackendContractError, match="idle_events=True"):
            ensure_noisy_result(self._result(idle_events=True), "toy")

    def test_more_successes_than_shots_rejected(self):
        with pytest.raises(BackendContractError, match="no_error_shots=11 > shots=10"):
            ensure_noisy_result(self._result(no_error_shots=11), "toy")

    def test_malformed_execute_surfaces_as_contract_error(self):
        """A backend returning garbage fails typed at the point boundary."""

        class BrokenBackend(ExecutionBackend):
            name = "toy-broken"

            def compile(self, circuit, device, strategy, compiler_kwargs=None):
                return get_backend("trajectory").compile(
                    circuit, device, strategy, compiler_kwargs=compiler_kwargs)

            def execute(self, handle, shots, seed, *, noise, base_shot=0,
                        track_state=False):
                return {"shots": shots}  # not a NoisyResult

        backend = BrokenBackend()
        chunk = shot_plan(_point(), NOISE, 4)[0]
        with pytest.raises(BackendContractError, match="toy-broken"):
            backend.run_noise_point(chunk)

    def test_track_state_refused_by_non_tracking_backend(self):
        class NoTrackBackend(ExecutionBackend):
            name = "toy-no-track"

        chunk = shot_plan(_point(), NOISE, 4, track_state=True)[0]
        with pytest.raises(BackendError, match="cannot track"):
            NoTrackBackend().run_noise_point(chunk)


class _NotAPoint:
    """Deliberately fails the ExecutionPoint protocol (no methods at all)."""


class TestCompileMemo:
    """Compiled handles live in one true LRU per backend instance."""

    def test_hit_survives_and_only_the_oldest_is_evicted(self):
        memo = LRUMemo(3)
        for key in "abc":
            memo.put(key, key.upper())
        assert memo.get("a") == "A"  # a hit makes "a" the most recent
        memo.put("d", "D")  # evicts "b", now the oldest
        assert memo.get("b") is None
        assert [memo.get(key) for key in "cad"] == ["C", "A", "D"]
        memo.put("e", "E")  # "c" was touched first above, so it goes
        assert memo.get("c") is None
        assert [memo.get(key) for key in "ade"] == ["A", "D", "E"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUMemo(0)

    def test_compile_point_keeps_recent_handles_and_ignores_the_store_root(self):
        compiled: list[str] = []

        class Counting(ExecutionBackend):
            name = "counting"
            HANDLE_CAPACITY = 2

            def compile(self, circuit, device, strategy, compiler_kwargs=None):
                compiled.append(circuit.name)
                return CompiledHandle(backend=self.name, compiled=None, report=None)

        backend = Counting()
        first, second, third = (_point(num_qubits=n) for n in (4, 5, 6))
        backend.compile_point(first)
        backend.compile_point(second)
        backend.compile_point(first)  # hit: "first" is now the most recent
        backend.compile_point(third)  # evicts "second" only
        assert len(compiled) == 3
        backend.compile_point(second)
        assert len(compiled) == 4


class TestExecutionPointProtocol:
    def test_sweep_and_noise_points_satisfy_protocol(self):
        assert isinstance(_point(), ExecutionPoint)
        assert isinstance(shot_plan(_point(), NOISE, 4)[0], ExecutionPoint)

    def test_non_point_fails_isinstance(self):
        assert not isinstance(_NotAPoint(), ExecutionPoint)

    def test_execute_point_rejects_non_points(self):
        with pytest.raises(TypeError, match="not an ExecutionPoint"):
            execute_point(_NotAPoint())

    def test_point_key_rejects_non_points(self):
        with pytest.raises(TypeError, match="missing callable"):
            point_key(_NotAPoint())

    def test_error_names_each_missing_method(self):
        class PayloadOnly:
            def payload(self):
                return {}

        with pytest.raises(TypeError, match=r"key\(\).*execute\(\)"):
            execute_point(PayloadOnly())

    def test_service_submit_rejects_non_points(self, tmp_path):
        with SweepService(ArtifactStore(tmp_path)) as service:
            with pytest.raises(TypeError, match="not an ExecutionPoint"):
                service.submit(SweepPlan((_NotAPoint(),)))


class TestContentKeys:
    def test_replay_key_equals_trajectory_key(self):
        assert point_key(_point("replay")) == point_key(_point("trajectory"))

    def test_external_sim_key_differs(self):
        assert point_key(_point("external-sim")) != point_key(_point("trajectory"))

    def test_noise_point_keys_follow_the_compile_backend(self):
        trajectory = shot_plan(_point("trajectory"), NOISE, 4)[0]
        replay = shot_plan(_point("replay"), NOISE, 4)[0]
        external = shot_plan(_point("external-sim"), NOISE, 4)[0]
        assert point_key(trajectory) == point_key(replay)
        assert point_key(trajectory) != point_key(external)

    def test_spec_roundtrip_preserves_backend(self):
        point = _point("external-sim")
        assert SweepPoint.from_spec(point.spec()) == point

    def test_spec_without_backend_defaults_to_trajectory(self):
        spec = _point().spec()
        del spec["backend"]
        assert SweepPoint.from_spec(spec).backend == "trajectory"


class TestReplayBackend:
    def _warm_store(self, tmp_path, monkeypatch, plan) -> list:
        """Run ``plan`` on trajectory with a store-backed cache, point replay at it."""
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        cache = CompileCache.from_store(ArtifactStore(tmp_path))
        return execute_plan(plan, cache=cache), cache

    def test_warm_sweep_replays_bit_identical_with_zero_executed(
            self, tmp_path, monkeypatch):
        plan = SweepPlan.cartesian(("bv",), (4,), ("qubit_only", "eqm"))
        reference, cache = self._warm_store(tmp_path, monkeypatch, plan)

        replay_plan = SweepPlan.cartesian(
            ("bv",), (4,), ("qubit_only", "eqm"), backend="replay")
        executor = ParallelExecutor(cache=cache)
        replayed = executor.run(replay_plan)
        assert executor.last_stats.executed == 0
        assert executor.last_stats.cache_hits == len(plan)
        for ours, theirs in zip(replayed, reference):
            assert ours.report.total_eps == theirs.report.total_eps
            assert ours.report.makespan_ns == theirs.report.makespan_ns
            assert len(ours.compiled.ops) == len(theirs.compiled.ops)

    def test_warm_shot_chunks_replay_without_an_executor_cache(
            self, tmp_path, monkeypatch):
        """Even cache-less execution serves replay points from the store."""
        point = _point()
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        cache = CompileCache.from_store(ArtifactStore(tmp_path))
        execute_plan(SweepPlan((point,)), cache=cache)
        reference = simulate_point(point, NOISE, 64, seed=3, cache=cache)

        replay_chunk = shot_plan(_point("replay"), NOISE, 64, seed=3)[0]
        assert replay_chunk.execute() == dataclasses.replace(reference, seed=3)

    def test_cold_point_raises_replay_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        with pytest.raises(ReplayMissError, match="no stored result"):
            _point("replay").execute()

    def test_replay_miss_is_a_lookup_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        with pytest.raises(LookupError):
            _point("replay").execute()

    def test_replay_refuses_live_compile_and_execute(self):
        backend = get_backend("replay")
        with pytest.raises(BackendError, match="cannot compile"):
            backend.compile(None, None, None)
        with pytest.raises(BackendError, match="cannot execute"):
            backend.execute(None, 10, 0, noise=NOISE)


class TestExternalSimBackend:
    def test_compile_round_trips_through_qasm(self):
        handle = get_backend("external-sim").compile_point(_point("external-sim"))
        assert isinstance(handle, CompiledHandle)
        assert handle.backend == "external-sim"
        assert handle.qasm is not None
        assert "OPENQASM" in handle.qasm

    def test_estimate_agrees_with_trajectory(self):
        kwargs = {"compiler_kwargs": {"merge_single_qubit_gates": False}}
        reference = simulate_point(_point(**kwargs), NOISE, 800)
        external = simulate_point(_point("external-sim", **kwargs), NOISE, 800)
        assert external.shots == reference.shots == 800
        low_a, high_a = reference.confidence_interval()
        low_b, high_b = external.confidence_interval()
        assert low_a <= high_b and low_b <= high_a

    def test_chunk_split_is_invariant(self):
        whole = simulate_point(_point("external-sim"), NOISE, 96)
        split = simulate_point(_point("external-sim"), NOISE, 96, chunk_size=32)
        assert whole == split

    def test_track_state_refused(self):
        chunk = shot_plan(_point("external-sim"), NOISE, 8, track_state=True)[0]
        with pytest.raises(BackendError, match="cannot track"):
            chunk.execute()

    def test_merging_is_forced_off(self):
        merged_kwargs = {"compiler_kwargs": {"merge_single_qubit_gates": True}}
        handle = get_backend("external-sim").compile_point(
            _point("external-sim", **merged_kwargs))
        reference = _point(**{"compiler_kwargs":
                              {"merge_single_qubit_gates": False}}).execute()
        assert len(handle.compiled.ops) == len(reference.compiled.ops)


class TestCrossBackendCheck:
    def _result(self, no_error: int, shots: int = 4000) -> NoisyResult:
        return NoisyResult(shots=shots, seed=0, no_error_shots=no_error,
                           gate_events=0, idle_events=0)

    def _row(self, first: NoisyResult, second: NoisyResult) -> CrossCheckRow:
        return CrossCheckRow(
            benchmark="bv", num_qubits=4, strategy="qubit_only",
            analytic_eps=0.9,
            results=(("trajectory", first), ("external-sim", second)),
        )

    def test_close_estimates_agree(self):
        assert self._row(self._result(3600), self._result(3580)).agree

    def test_disjoint_estimates_disagree(self):
        row = self._row(self._result(3600), self._result(1200))
        assert not row.agree
        assert row.max_rel_diff > 0.5

    def test_needs_two_backends(self):
        with pytest.raises(ValueError, match="at least two"):
            cross_backend_check(backends=("trajectory",))

    def test_small_crosscheck_agrees(self):
        rows = cross_backend_check(
            benchmarks=("bv",), sizes=(4,), strategies=("qubit_only",),
            shots=600, workers=1)
        assert len(rows) == 1
        row = rows[0]
        assert row.agree
        assert row.eps("trajectory") == pytest.approx(row.eps("external-sim"),
                                                      rel=0.25)
        payload = row.as_dict()
        assert payload["agree"] is True
        assert set(payload["eps"]) == {"trajectory", "external-sim"}
