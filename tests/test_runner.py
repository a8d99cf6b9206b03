"""Tests for the parallel sweep execution engine and its compile cache."""

import pickle

import pytest

from repro.store import ArtifactStore
from repro.evaluation import run_strategies, strategy_sweep
from repro.evaluation.reporting import results_to_rows
from repro.runner import (
    CompileCache,
    DeviceSpec,
    ParallelExecutor,
    SweepPlan,
    SweepPoint,
    execute_plan,
    execute_point,
    freeze_kwargs,
    make_device,
    point_key,
)


class TestPlanEnumeration:
    def test_cartesian_order_is_benchmark_major(self):
        plan = SweepPlan.cartesian(("a", "b"), (4, 8), ("s1", "s2"))
        assert len(plan) == 8
        triples = [(p.benchmark, p.num_qubits, p.strategy) for p in plan]
        assert triples[:4] == [("a", 4, "s1"), ("a", 4, "s2"), ("a", 8, "s1"), ("a", 8, "s2")]
        assert triples[4][0] == "b"

    def test_single_and_concat(self):
        plan = SweepPlan.single("bv", 6, "eqm") + SweepPlan.single("bv", 8, "eqm")
        assert len(plan) == 2
        assert plan[0].num_qubits == 6
        assert plan[1].num_qubits == 8

    def test_points_carry_device_and_kwargs(self):
        spec = DeviceSpec(kind="ring", t1_scale=2.0)
        plan = SweepPlan.cartesian(
            ("bv",), (6,), ("ec",), device=spec,
            strategy_kwargs={"max_pairs": 2}, seed=3,
        )
        point = plan[0]
        assert point.device == spec
        assert point.seed == 3
        assert dict(point.strategy_kwargs) == {"max_pairs": 2}

    def test_describe_mentions_point_count(self):
        plan = SweepPlan.cartesian(("bv", "cnu"), (6,), ("eqm",))
        assert "2 points" in plan.describe()

    def test_freeze_kwargs_sorts_and_handles_none(self):
        assert freeze_kwargs(None) == ()
        assert freeze_kwargs({"b": 1, "a": 2}) == (("a", 2), ("b", 1))

    def test_points_are_hashable_and_picklable(self):
        point = SweepPoint("bv", 6, "eqm", device=DeviceSpec(kind="grid"))
        assert hash(point) == hash(pickle.loads(pickle.dumps(point)))


class TestDeviceSpec:
    def test_grid_is_sized_to_circuit(self):
        # The old device_for built (and discarded) a half-sized grid first;
        # the spec builds the circuit-sized grid directly.
        assert DeviceSpec(kind="grid").build(12).num_units == 12
        assert make_device("grid", 12).num_units == 12

    def test_t1_knobs(self):
        device = DeviceSpec(kind="grid", t1_scale=10.0, ququart_t1_ratio=0.5).build(9)
        assert device.qubit_t1_us == pytest.approx(1635.0)
        assert device.ququart_t1_us == pytest.approx(817.5)

    def test_qubit_error_scale_leaves_ququart_gates_alone(self):
        device = DeviceSpec(kind="grid", qubit_error_scale=0.1).build(6)
        assert device.durations.fidelity("cx2") == pytest.approx(0.999)
        assert device.durations.fidelity("cx0q") == pytest.approx(0.99)

    def test_overrides_apply(self):
        spec = DeviceSpec(
            kind="grid",
            duration_overrides=(("cx0_in", 251.0),),
            fidelity_overrides=(("cx0_in", 0.5),),
        )
        device = spec.build(6)
        assert device.durations.duration("cx0_in") == 251.0
        assert device.durations.fidelity("cx0_in") == 0.5

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            make_device("torus", 6)


class TestCompileCache:
    def _point(self, **overrides):
        fields = {"benchmark": "bv", "num_qubits": 6, "strategy": "qubit_only"}
        fields.update(overrides)
        return SweepPoint(**fields)

    def test_roundtrip(self, tmp_path):
        cache = CompileCache.from_store(ArtifactStore(tmp_path))
        point = self._point()
        assert cache.get(point) is None
        result = execute_point(point)
        cache.put(point, result)
        cached = cache.get(point)
        assert cached is not None
        assert cached.report == result.report
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.store.stats().refs == 1

    def test_key_changes_with_strategy_kwargs_and_device(self):
        base = self._point()
        assert point_key(base) == point_key(self._point())
        assert point_key(base) != point_key(self._point(strategy_kwargs=(("max_pairs", 1),)))
        assert point_key(base) != point_key(self._point(device=DeviceSpec(kind="ring")))
        assert point_key(base) != point_key(
            self._point(device=DeviceSpec(kind="grid", t1_scale=2.0))
        )
        assert point_key(base) != point_key(self._point(seed=1))

    def test_key_changes_when_code_changes(self, monkeypatch):
        import repro.runner.cache as cache_module

        before = point_key(self._point())
        monkeypatch.setattr(cache_module, "code_fingerprint", lambda: "different-code")
        after = point_key(self._point())
        assert before != after

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = CompileCache.from_store(ArtifactStore(tmp_path))
        point = self._point()
        blob = cache.put(point, execute_point(point))
        blob.write_bytes(b"not a pickle")
        assert cache.get(point) is None
        assert not blob.exists()

    def test_clear(self, tmp_path):
        cache = CompileCache.from_store(ArtifactStore(tmp_path))
        point = self._point()
        cache.put(point, execute_point(point))
        assert cache.store.size_bytes() > 0
        assert cache.store.clear() == 1
        assert cache.store.stats().refs == 0


BELL_QASM = (
    'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
    "qreg q[2];\nh q[0];\ncx q[0],q[1];\n"
)


class TestQasmPoints:
    def test_from_qasm_sizes_and_names_the_point(self):
        point = SweepPoint.from_qasm(BELL_QASM, "eqm", name="bell")
        assert point.benchmark == "bell"
        assert point.num_qubits == 2
        assert point.qasm == BELL_QASM

    def test_payload_carries_a_digest_not_the_text(self):
        payload = SweepPoint.from_qasm(BELL_QASM, "eqm").payload()
        assert payload["qasm_sha256"] is not None
        assert len(payload["qasm_sha256"]) == 64
        assert BELL_QASM not in str(payload)
        assert SweepPoint("bv", 6, "eqm").payload()["qasm_sha256"] is None

    def test_identical_text_shares_a_key_and_edits_invalidate(self):
        base = SweepPoint.from_qasm(BELL_QASM, "eqm", name="bell")
        twin = SweepPoint.from_qasm(BELL_QASM, "eqm", name="bell")
        edited = SweepPoint.from_qasm(BELL_QASM + "x q[0];\n", "eqm", name="bell")
        assert point_key(base) == point_key(twin)
        assert point_key(base) != point_key(edited)

    def test_qasm_points_execute_and_cache(self, tmp_path):
        cache = CompileCache.from_store(ArtifactStore(tmp_path))
        point = SweepPoint.from_qasm(BELL_QASM, "qubit_only", name="bell")
        executor = ParallelExecutor(workers=1, cache=cache)
        first = executor.run(SweepPlan((point,)))
        assert executor.last_stats.executed == 1
        second = executor.run(SweepPlan((point,)))
        assert executor.last_stats.cache_hits == 1
        assert first[0].report == second[0].report
        assert first[0].compiled.circuit_name == "bell"

    def test_qasm_points_are_picklable(self):
        point = SweepPoint.from_qasm(BELL_QASM, "eqm", name="bell")
        clone = pickle.loads(pickle.dumps(point))
        assert clone == point
        assert clone.execute().report == point.execute().report

    def test_from_qasm_file_uses_the_stem(self, tmp_path):
        source = tmp_path / "teleport_demo.qasm"
        source.write_text(BELL_QASM)
        point = SweepPoint.from_qasm_file(source, "eqm")
        assert point.benchmark == "teleport_demo"

    def test_qasm_and_benchmark_points_mix_in_one_plan(self):
        plan = SweepPlan((
            SweepPoint.from_qasm(BELL_QASM, "qubit_only", name="bell"),
            SweepPoint("bv", 4, "qubit_only"),
        ))
        results = execute_plan(plan, workers=2)
        assert [r.benchmark for r in results] == ["bell", "bv"]


GHZ3_QASM = (
    'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
    "qreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
)


class TestPinnedPointKeys:
    """``payload()`` keys points exactly as it always has.

    The literals were computed with the code fingerprint fixed to zeros,
    so they change only if a point's payload does: a store written before
    a refactor of :meth:`SweepPoint.payload` must stay warm after it.
    """

    @pytest.fixture(autouse=True)
    def _fixed_fingerprint(self, monkeypatch):
        from repro.runner import cache

        monkeypatch.setattr(cache, "code_fingerprint", lambda: "0" * 64)

    @pytest.mark.parametrize("point, key", [
        (SweepPoint("qft", 6, "rb", device=DeviceSpec(kind="grid"), seed=3,
                    compiler_kwargs=freeze_kwargs({"merge_single_qubit_gates": False})),
         "cebca6498d5090cad9fa51074860304cbde4cb4ca4a594baa7354d69bef75c56"),
        (SweepPoint.from_qasm(GHZ3_QASM, "eqm", device="ring", name="ghz3"),
         "ac62f6641ea00a1fd7c6f38136c7d6ef5a124b804f50fd94636539307021fc9d"),
        (SweepPoint("bv", 4, "qubit_only", backend="replay"),
         "cf5ec372102d7005947fc0628191b2015b0e7b98a166cf330b9e9a353aab0ef6"),
        (SweepPoint("bv", 4, "qubit_only", backend="external-sim"),
         "edcd7ecbb82897371d064ed90ad77143170403f7d3540270db80c49c4fa412a1"),
    ], ids=["registry", "qasm", "replay", "external-sim"])
    def test_key_is_unchanged(self, point, key):
        assert point_key(point) == key


class TestParallelExecutor:
    PLAN = SweepPlan.cartesian(("bv", "cuccaro"), (6, 8), ("qubit_only", "eqm"))

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)

    def test_serial_and_parallel_results_identical(self):
        serial = execute_plan(self.PLAN, workers=1)
        parallel = execute_plan(self.PLAN, workers=2)
        assert [r.report for r in serial] == [r.report for r in parallel]

    def test_results_come_back_in_plan_order(self):
        results = execute_plan(self.PLAN, workers=2)
        for point, result in zip(self.PLAN, results):
            assert (result.benchmark, result.num_qubits, result.strategy) == (
                point.benchmark, point.num_qubits, point.strategy,
            )

    def test_second_cached_run_recompiles_nothing(self, tmp_path):
        cache = CompileCache.from_store(ArtifactStore(tmp_path))
        executor = ParallelExecutor(workers=1, cache=cache)
        first = executor.run(self.PLAN)
        assert executor.last_stats.executed == len(self.PLAN)
        second = executor.run(self.PLAN)
        assert executor.last_stats.executed == 0
        assert executor.last_stats.cache_hits == len(self.PLAN)
        assert [r.report for r in first] == [r.report for r in second]

    def test_partial_cache_only_compiles_misses(self, tmp_path):
        cache = CompileCache.from_store(ArtifactStore(tmp_path))
        ParallelExecutor(workers=1, cache=cache).run(SweepPlan((self.PLAN[0],)))
        executor = ParallelExecutor(workers=1, cache=cache)
        executor.run(self.PLAN)
        assert executor.last_stats.cache_hits == 1
        assert executor.last_stats.executed == len(self.PLAN) - 1


class TestEvaluationIntegration:
    def test_run_strategies_engine_matches_legacy(self, tmp_path):
        legacy = run_strategies("cnu", 9, strategies=("qubit_only", "eqm"))
        engine = run_strategies(
            "cnu", 9, strategies=("qubit_only", "eqm"),
            cache=CompileCache.from_store(ArtifactStore(tmp_path)),
        )
        assert {name: r.report for name, r in legacy.items()} == {
            name: r.report for name, r in engine.items()
        }

    def test_strategy_sweep_parallel_rows_byte_identical(self):
        kwargs = {"benchmarks": ("bv",), "sizes": (6, 8),
                  "strategies": ("qubit_only", "eqm")}
        serial = strategy_sweep(**kwargs)
        parallel = strategy_sweep(workers=2, **kwargs)
        assert results_to_rows(serial) == results_to_rows(parallel)
