"""Golden tests for the fused trajectory kernel programs.

The contract under test (see :mod:`repro.noise.kernel`): the fused
kernel path — the default in both batched trajectory engines — is
bit-identical to the retained scalar ``run_reference`` across workloads,
strategies, presets, seeds and chunk/block splits, static and dynamic
circuits alike.  The shared-row tests also pin *how* it gets there: a
fresh block evolves one row all its lanes share, plus one row per lane
whose gate error fired.
"""

import pickle
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.noise.kernel as kernel_module
import repro.noise.rng as rng_module
import repro.noise.trajectory as trajectory_module
import repro.simulation.batched as batched_module
from repro.noise import NoiseSpec, TrajectoryEngine
from repro.noise.kernel import (
    EventKernel,
    FusedRun,
    KernelSchedule,
    NoiseSite,
    build_event_kernel,
    build_plan,
    compile_schedule,
)
from repro.noise.rng import (
    PREFIX_BUDGET,
    PREFIX_STREAMS,
    GeneratorLanes,
    stream_prefix,
    uniform_streams,
)
from repro.noise.trajectory import _DAMPING_JUMP, _PROJECTORS, FINAL_VECTORS_MAX_SHOTS
from repro.pulses.unitaries import CX_MATRIX, CZ_MATRIX, SWAP_MATRIX, qubit_gate
from repro.runner import SweepPoint
from repro.simulation.statevector import MixedRadixState
from repro.simulation.verify import (
    _DOUBLE_SWAP,
    VerificationError,
    detect_moves,
    embed_on_slots,
    monomial_moves,
)

TABLE1 = NoiseSpec.from_preset("table1")

#: Tracked compile pool the property tests draw from: every strategy
#: family plus a dynamic feed-forward program, compiled once per session
#: (tracked engines need the unmerged, replayable op stream).
_POOL_SPECS = (
    ("bv", 6, "eqm"),
    ("qft", 4, "rb"),
    ("ghz", 5, "full_ququart"),
    ("teleport", 3, "eqm"),
    ("teleport", 3, "qubit_only"),
)
_PRESETS = ("table1", "pessimistic", "heterogeneous", "ideal")
_COMPILED: dict[int, object] = {}
_ENGINES: dict[tuple, TrajectoryEngine] = {}


def _pooled_compiled(spec_index: int):
    compiled = _COMPILED.get(spec_index)
    if compiled is None:
        bench, size, strategy = _POOL_SPECS[spec_index]
        compiled = SweepPoint(
            bench, size, strategy,
            compiler_kwargs=(("merge_single_qubit_gates", False),),
        ).execute().compiled
        _COMPILED[spec_index] = compiled
    return compiled


def _pooled_engine(spec_index: int, preset: str) -> TrajectoryEngine:
    key = (spec_index, preset)
    engine = _ENGINES.get(key)
    if engine is None:
        engine = TrajectoryEngine(
            _pooled_compiled(spec_index), NoiseSpec.from_preset(preset),
            track_state=True,
        )
        _ENGINES[key] = engine
    return engine


class TestFusedGoldenEquivalence:
    """Fused kernel chunks must equal the scalar reference, bit for bit."""

    @given(
        spec_index=st.integers(0, len(_POOL_SPECS) - 1),
        preset=st.sampled_from(_PRESETS),
        seed=st.one_of(st.integers(0, 2**8), st.integers(0, 2**40)),
        base_shot=st.integers(0, 5000),
        shots=st.integers(0, 48),
        split=st.integers(0, 48),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fused_matches_reference(
        self, spec_index, preset, seed, base_shot, shots, split
    ):
        engine = _pooled_engine(spec_index, preset)
        reference = engine.run_reference(shots, seed, base_shot=base_shot)
        assert engine.run(shots, seed, base_shot=base_shot) == reference
        # any chunk split of the same shot range is bit-invisible
        cut = min(split, shots)
        first = engine.run(cut, seed, base_shot=base_shot)
        second = engine.run(shots - cut, seed, base_shot=base_shot + cut)
        assert first.no_error_shots + second.no_error_shots == reference.no_error_shots
        assert first.gate_events + second.gate_events == reference.gate_events
        assert first.outcome_successes + second.outcome_successes == (
            reference.outcome_successes
        )

    def test_kraus_idle_policy_fused(self):
        compiled = _pooled_compiled(1)
        spec = TABLE1.with_idle_policy("kraus")
        engine = TrajectoryEngine(compiled, spec, track_state=True)
        assert engine.run(40, seed=9) == engine.run_reference(40, seed=9)

    @pytest.mark.parametrize("spec_index", [3, 4], ids=["eqm", "qubit_only"])
    @pytest.mark.parametrize("preset", ["table1", "pessimistic"])
    def test_dynamic_kraus_idle_policy_fused(self, preset, spec_index):
        # dynamic ops, state-dependent idle decay and many forked rows at once
        compiled = _pooled_compiled(spec_index)
        spec = NoiseSpec.from_preset(preset).with_idle_policy("kraus")
        engine = TrajectoryEngine(compiled, spec, track_state=True)
        assert engine.run(40, seed=9) == engine.run_reference(40, seed=9)

    def test_block_split_is_invisible(self, monkeypatch):
        engine = _pooled_engine(0, "table1")
        whole = engine.run(60, seed=3)
        monkeypatch.setattr(trajectory_module, "TRACKED_BLOCK_AMPLITUDES",
                            engine.dimension * 5)
        blocked = TrajectoryEngine(
            _pooled_compiled(0), TABLE1, track_state=True
        )
        assert blocked.run(60, seed=3) == whole

    def test_event_path_fused_matches_reference(self):
        compiled = SweepPoint("bv", 6, "eqm").execute().compiled
        fused = TrajectoryEngine(compiled, TABLE1)
        reference = fused.run_reference(300, seed=2)
        assert fused.run(300, seed=2) == reference


def _fired_lanes(engine: TrajectoryEngine, seed: int, shots: int, runs=None) -> np.ndarray:
    """Per lane of one block: did a noise site of ``runs`` (default: all) fire?"""
    draws = GeneratorLanes(seed, 0, shots).random_block(engine._draws)
    gate_mask = draws[:, : len(engine.compiled.ops)] < engine.op_probs
    if runs is None:
        runs = [s for s in engine._schedule.segments if isinstance(s, FusedRun)]
    sites = [item.op_index for run in runs for item in run.items if type(item) is NoiseSite]
    return gate_mask[:, sites].any(axis=1)


class _RowSpy:
    """Records the row tables the kernel evolves.

    ``applied`` is the row count each whole-table apply sees — a dense
    step's GEMM or a monomial step's gather; ``run_rows`` the noisy
    table's row count as each fused run ends (where the kernel once
    expanded rows to lanes); ``tables`` every table built.
    """

    def __init__(self, monkeypatch):
        self.applied: list[int] = []
        self.run_rows: list[int] = []
        self.tables: list[kernel_module.RowTable] = []
        apply_all = kernel_module.RowTable.apply_all
        gather_all = kernel_module.RowTable.gather_all
        execute_run = kernel_module.KernelSchedule.execute_run
        init = kernel_module.RowTable.__init__

        def spied_apply_all(state, matrix, plan):
            self.applied.append(state.count)
            apply_all(state, matrix, plan)

        def spied_gather_all(state, moves, plan, target):
            self.applied.append(state.count)
            gather_all(state, moves, plan, target)

        def spied_execute_run(schedule, run, state, *args):
            execute_run(schedule, run, state, *args)
            self.run_rows.append(state.count)

        def spied_init(state, *args, **kwargs):
            init(state, *args, **kwargs)
            self.tables.append(state)

        monkeypatch.setattr(kernel_module.RowTable, "apply_all", spied_apply_all)
        monkeypatch.setattr(kernel_module.RowTable, "gather_all", spied_gather_all)
        monkeypatch.setattr(kernel_module.KernelSchedule, "execute_run", spied_execute_run)
        monkeypatch.setattr(kernel_module.RowTable, "__init__", spied_init)


class TestSharedRows:
    """A block evolves its distinct trajectories, not its shots."""

    @pytest.mark.parametrize("preset", ["ideal", "pessimistic"])
    def test_fused_matches_reference_per_preset(self, preset, monkeypatch):
        engine = _pooled_engine(1, preset)
        spy = _RowSpy(monkeypatch)
        assert engine.run(64, seed=11) == engine.run_reference(64, seed=11)
        fired = _fired_lanes(engine, 11, 64)
        assert spy.run_rows == [1 + int(fired.sum())]
        assert fired.any() == (preset != "ideal")

    def test_every_lane_forks_and_orphans_the_trunk(self, monkeypatch):
        # ten times the pessimistic gate error: no lane stays error-free
        spec = NoiseSpec.from_preset("pessimistic", gate_error_scale=30.0)
        engine = TrajectoryEngine(_pooled_compiled(1), spec, track_state=True)
        fired = _fired_lanes(engine, 8, 64)
        assert fired.all()
        spy = _RowSpy(monkeypatch)
        assert engine.run(64, seed=8) == engine.run_reference(64, seed=8)
        assert spy.run_rows == [1 + 64]

    def test_kraus_idle_policy_matches_reference(self):
        engine = TrajectoryEngine(
            _pooled_compiled(0), TABLE1.with_idle_policy("kraus"), track_state=True
        )
        assert engine.run(64, seed=4) == engine.run_reference(64, seed=4)

    def test_dynamic_teleport_matches_reference(self):
        for spec_index in (3, 4):
            engine = _pooled_engine(spec_index, "pessimistic")
            assert engine.run(48, seed=6) == engine.run_reference(48, seed=6)

    @pytest.mark.parametrize("spec_index", [0, 3])
    def test_one_lane_blocks_match_reference(self, spec_index, monkeypatch):
        engine = _pooled_engine(spec_index, "pessimistic")
        monkeypatch.setattr(
            trajectory_module, "TRACKED_BLOCK_AMPLITUDES", engine.dimension
        )
        assert engine._tracked_block_shots() == 1
        assert engine.run(12, seed=2) == engine.run_reference(12, seed=2)

    def test_static_block_evolves_one_row_per_forked_lane(self, monkeypatch):
        engine = _pooled_engine(0, "table1")
        shots = 300
        assert engine._tracked_block_shots() >= shots  # one block
        fired = _fired_lanes(engine, 5, shots)
        assert 0 < fired.sum() < shots
        spy = _RowSpy(monkeypatch)
        engine.run(shots, seed=5)
        # the block enters the run as one shared row, and only lanes with
        # a fired gate event ever get a row of their own
        assert min(spy.applied) == 1
        assert spy.run_rows == [1 + int(fired.sum())]

    def test_dynamic_block_shares_its_opening_run(self, monkeypatch):
        engine = _pooled_engine(3, "pessimistic")
        opening = engine._schedule.segments[0]
        assert isinstance(opening, FusedRun)
        fired = _fired_lanes(engine, 5, 200, runs=[opening])
        assert 0 < fired.sum() < 200
        spy = _RowSpy(monkeypatch)
        engine.run(200, seed=5)
        # the opening run ends with the trunk plus one row per forked lane
        assert spy.run_rows[0] == 1 + int(fired.sum())

    def test_dynamic_block_keeps_sharing_past_its_first_measurement(self, monkeypatch):
        engine = _pooled_engine(3, "pessimistic")
        segments = engine._schedule.segments
        first_dynamic = next(i for i, s in enumerate(segments) if isinstance(s, int))
        assert any(isinstance(s, FusedRun) for s in segments[first_dynamic:])
        spy = _RowSpy(monkeypatch)
        shots = 200
        assert engine.run(shots, seed=5) == engine.run_reference(shots, seed=5)
        # the noisy table outlives the measurement and stays far below one
        # row per lane; the ideal table splits only at dynamic ops
        noisy, ideal = spy.tables
        assert len(spy.run_rows) >= 2
        assert spy.run_rows[-1] < shots
        assert noisy.count < shots
        assert ideal.count <= 8
        assert len(set(noisy.lane_rows.tolist())) < shots

    def test_worst_case_decay_splits_rows_by_jump(self):
        spec = NoiseSpec.from_preset("table1", t1_scale=0.02)
        engine = TrajectoryEngine(_pooled_compiled(0), spec, track_state=True)
        shots, seed = 300, 13
        _, state, _, idle_counts, _ = engine._evolve_block(seed, 0, shots)
        draws = GeneratorLanes(seed, 0, shots).random_block(engine._draws)
        jumps = draws[:, len(engine.compiled.ops):] < engine.idle_gammas
        forked = _fired_lanes(engine, seed, shots)
        assert (idle_counts == jumps.sum(axis=1)).all()
        patterns = {tuple(row) for row in jumps[~forked]}
        assert len(patterns) > 2 and forked.any() and not forked.all()
        # one row per (row, jumped) group: lanes left on the trunk end on one
        # row per jump pattern, lanes that forked keep the row they own
        rows = state.lane_rows
        assert len(set(rows[~forked].tolist())) == len(patterns)
        for row in set(rows[~forked].tolist()):
            assert len({tuple(j) for j in jumps[rows == row]}) == 1
        assert len(set(rows[forked].tolist())) == int(forked.sum())
        assert state.count == 1 + int(forked.sum()) + len(patterns) - 1
        assert state.capacity == state.count  # sized exactly, up front

    @pytest.mark.parametrize("spec_index", [0, 3], ids=["static", "dynamic"])
    def test_run_never_builds_a_per_lane_batch(self, spec_index, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("engine.run built a BatchedMixedRadixState")

        monkeypatch.setattr(batched_module.BatchedMixedRadixState, "__init__", refuse)
        engine = _pooled_engine(spec_index, "pessimistic")
        spy = _RowSpy(monkeypatch)
        assert engine.run(64, seed=2) == engine.run_reference(64, seed=2)
        assert len(spy.tables) == (2 if engine.is_dynamic else 1)

    @pytest.mark.parametrize("spec_index", [3, 4], ids=["eqm", "qubit_only"])
    def test_dynamic_kraus_one_lane_blocks_match_reference(self, spec_index, monkeypatch):
        spec = NoiseSpec.from_preset("pessimistic").with_idle_policy("kraus")
        engine = TrajectoryEngine(_pooled_compiled(spec_index), spec, track_state=True)
        monkeypatch.setattr(
            trajectory_module, "TRACKED_BLOCK_AMPLITUDES", engine.dimension
        )
        assert engine._tracked_block_shots() == 1
        assert engine.run(16, seed=3) == engine.run_reference(16, seed=3)

    @pytest.mark.parametrize("spec_index", range(len(_POOL_SPECS)))
    def test_final_vectors_are_independent_and_match_scalar(self, spec_index):
        engine = _pooled_engine(spec_index, "table1")
        vectors = list(engine.iter_final_vectors(40, seed=3))
        for shot, vector in enumerate(vectors):
            scalar = engine._run_shot(np.random.default_rng((3, shot))).vector
            assert (vector == scalar).all()
            # byte for byte: the oracle gathers monomial ops as the kernel
            # does, so even the signs of exact zeros agree
            assert vector.tobytes() == scalar.tobytes()
        snapshot = [vector.copy() for vector in vectors]
        vectors[0][:] = 0.0
        for vector, before in zip(vectors[1:], snapshot[1:]):
            assert (vector == before).all()


#: The monomial gates the gather path must reproduce, by operand count.
_MONOMIAL_GATES = {
    "x": qubit_gate("x"), "y": qubit_gate("y"), "z": qubit_gate("z"),
    "cx": CX_MATRIX, "cz": CZ_MATRIX, "swap": SWAP_MATRIX, "swap4": _DOUBLE_SWAP,
}


def _is_monomial(matrix: np.ndarray) -> bool:
    """One nonzero unit phase per row and column: checked without the kernel."""
    nonzero = matrix != 0
    return bool(
        (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all()
        and np.isin(matrix[nonzero], (1, -1, 1j, -1j)).all()
    )


def _table_holding(dims: tuple[int, ...], rows: np.ndarray, layout) -> kernel_module.RowTable:
    """A row table holding ``rows`` (canonical ``(count, dimension)``) in ``layout``."""
    count = rows.shape[0]
    table = kernel_module.RowTable(dims, count, capacity=count)
    table._front[: rows.size] = rows.ravel()
    table.count = count
    table._relayout(tuple(layout))
    return table


@st.composite
def _monomial_cases(draw):
    """A register, a monomial gate on distinct random slots, rows and layouts."""
    dims = tuple(draw(st.lists(st.sampled_from((2, 4)), min_size=1, max_size=4)))
    slots = [(unit, slot) for unit, dim in enumerate(dims) for slot in range(dim // 2)]
    names = [name for name, matrix in _MONOMIAL_GATES.items()
             if matrix.shape[0].bit_length() - 1 <= len(slots)]
    name = draw(st.sampled_from(names))
    width = _MONOMIAL_GATES[name].shape[0].bit_length() - 1
    chosen = tuple(draw(st.permutations(slots))[:width])
    count = draw(st.integers(1, 6))
    start = tuple(draw(st.permutations(range(len(dims) + 1))))
    target = tuple(draw(st.permutations(range(len(dims) + 1))))
    subset = draw(st.lists(st.integers(0, count - 1), min_size=1, unique=True))
    seed = draw(st.integers(0, 2**16))
    return dims, name, chosen, count, start, target, np.array(sorted(subset)), seed


def _random_rows(count: int, dimension: int, seed: int) -> np.ndarray:
    """Random complex rows with some exact zeros (of both signs) mixed in."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(count, dimension)) + 1j * rng.normal(size=(count, dimension))
    rows[rng.random((count, dimension)) < 0.3] = 0.0
    rows[rng.random((count, dimension)) < 0.1] = complex(-0.0, -0.0)
    return rows


class TestMonomialGather:
    """Monomial operators applied as one gather equal the GEMM exactly."""

    @given(case=_monomial_cases())
    @example(case=((4, 2, 2, 4), "swap4", ((3, 1), (0, 0), (3, 0), (0, 1)), 3,
                   (0, 1, 2, 3, 4), (1, 4, 0, 2, 3), np.array([0, 2]), 1))
    @example(case=((2,), "x", ((0, 0),), 2, (0, 1), (1, 0), np.array([1]), 2))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_gather_equals_gemm(self, case):
        dims, name, slots, count, start, target, subset, seed = case
        matrix, units = embed_on_slots(dims, _MONOMIAL_GATES[name], slots)
        plan = build_plan(dims, units)
        moves = monomial_moves(matrix, tuple(dims[u] for u in units))
        assert moves is not None
        rows = _random_rows(count, int(np.prod(dims)), seed)
        # whole table: one gather into ``target`` against relayout + GEMM
        gathered = _table_holding(dims, rows, start)
        gathered.gather_all(moves, plan, target)
        assert gathered.layout == target
        multiplied = _table_holding(dims, rows, start)
        multiplied.apply_all(matrix, plan)
        assert (gathered.canonical() == multiplied.canonical()).all()
        # already in the target layout: the moves run in place, byte for
        # byte what the out-of-place gather writes
        in_place = _table_holding(dims, rows, target)
        in_place.gather_all(moves, plan, target)
        assert in_place.canonical().tobytes() == gathered.canonical().tobytes()
        # a row subset, in the current layout
        gathered = _table_holding(dims, rows, start)
        gathered.gather_rows(moves, plan, subset)
        multiplied = _table_holding(dims, rows, start)
        multiplied.apply_rows(matrix, plan, subset)
        assert gathered.layout == multiplied.layout == start
        assert (gathered.canonical() == multiplied.canonical()).all()
        # the scalar oracle's gather against its own GEMM
        for row in rows:
            scalar, reference = MixedRadixState(dims), MixedRadixState(dims)
            scalar._vector = row.copy()
            reference._vector = row.copy()
            scalar.apply_moves(moves, units)
            reference.apply(matrix, units)
            assert (scalar.vector == reference.vector).all()

    def test_examples_cover_wide_and_stacked_plans(self):
        wide = build_plan((4, 2, 2, 4), (3, 0))
        stacked = build_plan((2,), (0,))
        assert wide.wide and not stacked.wide

    @pytest.mark.parametrize("name", sorted(_MONOMIAL_GATES) + ["s", "sdg"])
    def test_detection_accepts_monomial_gates(self, name):
        matrix = _MONOMIAL_GATES.get(name)
        if matrix is None:
            matrix = qubit_gate(name)
        width = matrix.shape[0].bit_length() - 1  # operand count
        assert detect_moves(matrix, (2,) * width) is not None
        # embedded on ququart slots, two operands per unit
        dims = (4,) * ((width + 1) // 2)
        slots = tuple((unit, slot) for unit in range(len(dims)) for slot in (0, 1))[:width]
        embedded, units = embed_on_slots(dims, matrix, slots)
        assert detect_moves(embedded, tuple(dims[u] for u in units)) is not None

    @pytest.mark.parametrize("name", ["h", "rz", "damping_jump", "project_0", "project_1"])
    @pytest.mark.parametrize("dims, slot", [((2,), (0, 0)), ((4,), (0, 1))])
    def test_detection_rejects_dense_and_non_unitary(self, name, dims, slot):
        matrix = {
            "h": qubit_gate("h"),
            "rz": qubit_gate("rz", (0.3,)),
            "damping_jump": _DAMPING_JUMP,
            "project_0": _PROJECTORS[0],
            "project_1": _PROJECTORS[1],
        }[name]
        embedded, units = embed_on_slots(dims, matrix, (slot,))
        assert detect_moves(embedded, tuple(dims[u] for u in units)) is None
        assert monomial_moves(embedded, tuple(dims[u] for u in units)) is None

    def test_detection_rejects_non_unit_phases(self):
        assert detect_moves(qubit_gate("t"), (2,)) is None
        assert detect_moves(2.0 * qubit_gate("x"), (2,)) is None

    @pytest.mark.parametrize("spec_index", [0, 1, 2])
    def test_ideal_fused_vectors_equal_the_gemm_ideal_vector(self, spec_index):
        # the ideal vector is replayed with GEMMs only; the fused kernel
        # gathers every monomial step, and the two agree under ==
        engine = _pooled_engine(spec_index, "ideal")
        for vector in engine.iter_final_vectors(6, seed=1):
            assert (vector == engine._ideal_vector).all()

    def test_static_run_multiplies_only_dense_steps(self, monkeypatch):
        engine = TrajectoryEngine(
            _pooled_compiled(2), NoiseSpec.from_preset("pessimistic"), track_state=True
        )
        (run,) = engine._schedule.segments
        steps = [item for item in run.items if type(item) is kernel_module.UnitaryStep]
        sites = [item for item in run.items if type(item) is NoiseSite]
        dense = [step for step in steps if not _is_monomial(step.matrix)]
        monomial = {id(step.matrix) for step in steps if _is_monomial(step.matrix)}
        paulis = {id(p.matrix) for site in sites for entry in site.paulis for p in entry}
        assert dense and monomial and paulis
        shots = 64
        assert engine._tracked_block_shots() >= shots  # one block
        assert _fired_lanes(engine, 0, shots).any()
        multiplied = []
        matmul = np.matmul

        def spied_matmul(matrix, *args, **kwargs):
            multiplied.append(id(matrix))
            return matmul(matrix, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spied_matmul)
        chunk = engine.run(shots, seed=0)
        monkeypatch.undo()
        assert chunk == engine.run_reference(shots, seed=0)
        # each dense step multiplies the whole table once; no monomial
        # step and no fired Pauli ever reaches a GEMM
        assert not set(multiplied) & (monomial | paulis)
        dense_ids = [id(step.matrix) for step in dense]
        assert sorted(i for i in multiplied if i in set(dense_ids)) == sorted(dense_ids)


class TestKernelCompilation:
    """The compiled program's structure and artifact-level caching."""

    def test_schedule_cached_on_the_artifact(self):
        compiled = _pooled_compiled(0)
        one = _pooled_engine(0, "table1")
        two = TrajectoryEngine(compiled, NoiseSpec.from_preset("pessimistic"),
                               track_state=True)
        assert one._schedule is not None
        assert one._schedule is two._schedule
        assert one._op_unitaries is two._op_unitaries
        again = compile_schedule(compiled, one.dims, one._op_unitaries)
        assert again is one._schedule

    def test_static_circuit_compiles_to_one_fused_run(self):
        engine = _pooled_engine(0, "table1")
        schedule = engine._schedule
        assert isinstance(schedule, KernelSchedule)
        assert len(schedule.segments) == 1
        assert isinstance(schedule.segments[0], FusedRun)
        assert schedule.num_ops == len(engine.compiled.ops)

    def test_dynamic_circuit_alternates_runs_and_dynamic_ops(self):
        engine = _pooled_engine(3, "table1")
        segments = engine._schedule.segments
        bare = [s for s in segments if isinstance(s, int)]
        assert bare, "a feed-forward program must keep its dynamic ops bare"
        for index in bare:
            assert engine.compiled.ops[index].is_dynamic
        for segment in segments:
            if isinstance(segment, FusedRun):
                for item in segment.items:
                    assert not engine.compiled.ops[item.op_index].is_dynamic

    def test_build_plan_matches_transform_layouts(self):
        # one owner: the kernel re-exports the batched state's planner
        assert build_plan is batched_module.build_plan
        plan = build_plan((2, 2, 2, 2), (1,))
        assert plan.sub_dim == 2 and plan.rest == 8
        assert plan.shape(7) == tuple(
            7 if axis == 0 else (2, 2, 2, 2)[axis - 1] for axis in plan.axes
        )
        narrow = build_plan((2, 2), (0,))
        assert not narrow.wide  # rest == 2 never takes the wide panel
        assert narrow.axes[0] == 0

    def test_event_kernel_counts_match_two_compare_loop(self):
        kernel = build_event_kernel(np.array([0.5, 0.0, 0.25]), np.array([0.125]))
        assert isinstance(kernel, EventKernel)
        draws = np.array([[0.4, 0.1, 0.2, 0.1], [0.6, 0.0, 0.3, 0.2]])
        stream = _ColumnStream(draws)
        gate, idle = kernel.count_block(stream)
        assert gate.tolist() == [2, 0]
        assert idle.tolist() == [1, 0]
        assert stream.served == 4  # one column per threshold, no more


class TestOperatorMemos:
    """Embedded operators and apply plans come from one process memo each."""

    @staticmethod
    def _compile_bv6():
        from repro.arch import Device, grid_topology
        from repro.compiler import QompressCompiler
        from repro.compression import get_strategy
        from repro.workloads import build_benchmark

        compiler = QompressCompiler(
            Device(topology=grid_topology(2, 3)), get_strategy("eqm"),
            merge_single_qubit_gates=False,
        )
        return compiler.compile(build_benchmark("bv", 6))

    def test_second_compile_of_a_gate_set_embeds_nothing(self, monkeypatch):
        import repro.simulation.verify as verify_module

        calls = []
        real = verify_module.embed_operator

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(verify_module, "embed_operator", spy)
        verify_module._memoised_embedding.cache_clear()  # earlier tests may have warmed it
        first, second = self._compile_bv6(), self._compile_bv6()
        assert first is not second
        TrajectoryEngine(first, TABLE1, track_state=True).run(64, seed=0)
        assert calls, "the first engine must embed its operators"
        before = len(calls)
        TrajectoryEngine(second, TABLE1, track_state=True).run(64, seed=0)
        assert len(calls) == before

    def test_memoised_embeddings_are_read_only(self):
        from repro.pulses.unitaries import qubit_gate
        from repro.simulation.verify import embed_on_slots

        matrix, units = embed_on_slots((2, 4), qubit_gate("x"), ((1, 0),))
        assert units == (1,)
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    def test_build_plan_shares_one_plan_for_lists_and_tuples(self):
        assert build_plan([2, 4, 2], [1, 0]) is build_plan((2, 4, 2), (1, 0))


class _ColumnStream:
    """Serves a fixed draw matrix to ``count_block`` one column at a time."""

    def __init__(self, draws: np.ndarray) -> None:
        self.shots = draws.shape[0]
        self._draws = draws
        self.served = 0

    def columns(self, ndraws: int):
        for column in range(ndraws):
            self.served += 1
            yield self._draws[:, column].copy()


def _event_sums(draws: np.ndarray, thresholds: np.ndarray, num_ops: int):
    """Per-lane gate and idle counts of the whole draw matrix at once."""
    events = draws[:, : len(thresholds)] < thresholds
    return events[:, :num_ops].sum(axis=1).tolist(), events[:, num_ops:].sum(axis=1).tolist()


@pytest.fixture
def cold_prefixes():
    """Empty the process's stream-prefix memo before and after a test."""
    stream_prefix.cache_clear()
    yield
    stream_prefix.cache_clear()


@pytest.mark.usefixtures("cold_prefixes")
class TestFusedEventCount:
    """``count_block`` compares the columns a shared stream prefix serves:
    the counts equal the draw-matrix computation exactly, whichever
    requests reached the prefix before."""

    SEED = 7
    BASE = 123
    NDRAWS = 10
    #: 8192 lanes store PREFIX_BUDGET // 8192 == 16 columns.
    WIDE = 8192

    @classmethod
    def _thresholds(cls) -> np.ndarray:
        # edge values, plus three thresholds equal to draws that lanes 0-2
        # really make at columns 5-7 (``<`` must not fire on them)
        made = uniform_streams(cls.SEED, cls.BASE, 3, cls.NDRAWS)
        return np.array([0.0, 1.0, 5e-324, 0.5, 1e-3,
                         made[0, 5], made[2, 6], made[1, 7], 0.25, 0.75])

    def test_thresholds_cover_the_edges(self):
        thresholds = self._thresholds()
        made = uniform_streams(self.SEED, self.BASE, 3, self.NDRAWS)
        assert (made == thresholds).sum() >= 3
        assert 0.0 < thresholds[2] < np.finfo(float).tiny  # subnormal

    @pytest.mark.parametrize("shots", [0, 1, 3, 4096, 8193])
    @pytest.mark.parametrize("num_ops", [0, 4, 10])
    def test_counts_equal_the_draw_matrix_sums(self, shots, num_ops):
        thresholds = self._thresholds()
        draws = uniform_streams(self.SEED, self.BASE, shots, self.NDRAWS + 3)
        kernel = build_event_kernel(thresholds[:num_ops], thresholds[num_ops:])
        stream = stream_prefix(self.SEED, self.BASE, shots)
        gate, idle = kernel.count_block(stream)
        assert (gate.tolist(), idle.tolist()) == _event_sums(draws, thresholds, num_ops)
        # a deeper request continues the same streams
        served = list(stream.columns(self.NDRAWS + 3))
        assert all((served[column] == draws[:, column]).all() for column in range(13))

    def _check_depth(self, ndraws: int, draws: np.ndarray) -> None:
        thresholds = np.linspace(0.05, 0.95, ndraws)
        num_ops = ndraws // 2
        kernel = build_event_kernel(thresholds[:num_ops], thresholds[num_ops:])
        gate, idle = kernel.count_block(stream_prefix(self.SEED, 0, self.WIDE))
        assert (gate.tolist(), idle.tolist()) == _event_sums(draws, thresholds, num_ops)

    @pytest.mark.parametrize("ndraws", [5, 16, 23])
    def test_depths_below_at_and_above_the_prefix(self, ndraws):
        stream = stream_prefix(self.SEED, 0, self.WIDE)
        assert stream.depth == 16
        self._check_depth(ndraws, uniform_streams(self.SEED, 0, self.WIDE, ndraws))
        assert stream.nbytes == min(ndraws, 16) * self.WIDE * 8

    @pytest.mark.parametrize("order", [(23, 5, 16), (5, 16, 23), (16, 23, 5, 23)])
    def test_request_orders_all_count_exactly(self, order):
        draws = uniform_streams(self.SEED, 0, self.WIDE, max(order))
        for ndraws in order:
            self._check_depth(ndraws, draws)
        assert stream_prefix.cache_info().currsize == 1

    def test_a_second_key_keeps_its_own_prefix(self):
        first = stream_prefix(self.SEED, 0, self.WIDE)
        second = stream_prefix(self.SEED, self.WIDE, 3904)
        assert first is not second and second.depth == PREFIX_BUDGET // 3904
        thresholds = self._thresholds()
        kernel = build_event_kernel(thresholds[:4], thresholds[4:])
        for stream, base in ((first, 0), (second, self.WIDE), (first, 0)):
            draws = uniform_streams(self.SEED, base, stream.shots, self.NDRAWS)
            gate, idle = kernel.count_block(stream)
            assert (gate.tolist(), idle.tolist()) == _event_sums(draws, thresholds, 4)
        assert stream_prefix(self.SEED, 0, self.WIDE) is first
        assert stream_prefix.cache_info().currsize == 2

    def test_served_columns_are_read_only(self):
        stream = stream_prefix(self.SEED, self.BASE, 64)
        served = list(stream.columns(3))
        with pytest.raises(ValueError):
            served[0][0] = 0.5
        assert not any(column.flags.writeable for column in served)

    def test_columns_past_the_prefix_equal_uniform_streams(self):
        depth = PREFIX_BUDGET // self.WIDE
        draws = uniform_streams(self.SEED, self.BASE, self.WIDE, depth + 6)
        stream = stream_prefix(self.SEED, self.BASE, self.WIDE)
        for _ in range(2):  # streaming past the prefix never moves its checkpoint
            served = np.stack(list(stream.columns(depth + 6)), axis=1)
            assert (served == draws).all()
        assert stream.nbytes == depth * self.WIDE * 8

    def test_a_second_engine_draws_only_past_the_prefix(self, monkeypatch):
        engine = TrajectoryEngine(_pooled_compiled(0), TABLE1)
        columns = len(engine._event_kernel.thresholds)
        drawn = []
        real = GeneratorLanes.random

        def spy(lanes, *args):
            drawn.append(lanes.shots)
            return real(lanes, *args)

        monkeypatch.setattr(GeneratorLanes, "random", spy)
        first = engine.run(4096, seed=11)
        assert len(drawn) == columns
        del drawn[:]
        again = TrajectoryEngine(_pooled_compiled(0), TABLE1).run(4096, seed=11)
        assert again == first
        assert len(drawn) == max(0, columns - PREFIX_BUDGET // 4096)

    @settings(max_examples=40, deadline=None)
    @given(requests=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 30), st.integers(0, 30)),
        min_size=1, max_size=8,
    ))
    def test_request_sequences_count_like_fresh_draws(self, requests):
        # a 48-float budget keeps every depth small, so the sequences
        # cross the prefix end of all four keys
        keys = ((3, 0, 1), (3, 9, 4), (3, 0, 7), (4, 0, 7))
        thresholds = np.random.default_rng(1).random(30)
        with mock.patch.object(rng_module, "PREFIX_BUDGET", 48):
            stream_prefix.cache_clear()
            for key_index, ndraws, num_ops in requests:
                num_ops = min(num_ops, ndraws)
                key = keys[key_index]
                kernel = build_event_kernel(thresholds[:num_ops], thresholds[num_ops:ndraws])
                stream = stream_prefix(*key)
                gate, idle = kernel.count_block(stream)
                draws = uniform_streams(*key, ndraws)
                expected = _event_sums(draws, thresholds[:ndraws], num_ops)
                assert (gate.tolist(), idle.tolist()) == expected
                assert stream.nbytes <= 48 * 8
        stream_prefix.cache_clear()

    def test_stored_bytes_never_exceed_the_budget(self):
        for base, shots in ((0, 1024), (5, 3000), (0, 4096), (1, 8193), (0, PREFIX_BUDGET + 1)):
            stream = stream_prefix(self.SEED, base, shots)
            for _ in stream.columns(stream.depth + 3):
                pass
            assert stream.nbytes <= 8 * PREFIX_BUDGET
            assert stream.nbytes == 8 * shots * stream.depth
            assert stream_prefix.cache_info().currsize <= PREFIX_STREAMS
        assert stream.depth == 0  # a chunk wider than the budget stores nothing

    def test_concurrent_kernels_share_one_stream(self):
        thresholds = np.linspace(0.01, 0.5, 40)
        kernels = (build_event_kernel(thresholds[:24], thresholds[24:]),
                   build_event_kernel(thresholds[:10], thresholds[10:20]))
        serial = []
        for kernel in kernels:
            stream_prefix.cache_clear()
            serial.append(kernel.count_block(stream_prefix(self.SEED, 0, self.WIDE)))
        for _ in range(4):
            stream_prefix.cache_clear()
            stream = stream_prefix(self.SEED, 0, self.WIDE)
            barrier = threading.Barrier(len(kernels))
            results = [None] * len(kernels)

            def count(index):
                barrier.wait()
                results[index] = kernels[index].count_block(stream)

            threads = [threading.Thread(target=count, args=(index,)) for index in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for (gate, idle), (want_gate, want_idle) in zip(results, serial):
                assert (gate == want_gate).all() and (idle == want_idle).all()

    def test_later_draws_continue_the_stream(self):
        lanes = GeneratorLanes(self.SEED, self.BASE, 64)
        lanes.random_block(5)
        twin = lanes.copy()
        ahead = twin.random_block(3)
        picked = np.array([1, 5, 40])
        strings = twin.integers(picked, 1, 16)
        for position, lane in enumerate(picked):
            rng = np.random.default_rng((self.SEED, self.BASE + int(lane)))
            rng.random(8)
            assert int(rng.integers(1, 16)) == strings[position]
        # the copy's draws never moved the original
        assert (lanes.random_block(3) == ahead).all()


class TestJumpAhead:
    """``GeneratorLanes.advance`` lands where NumPy's ``PCG64.advance`` does."""

    @pytest.mark.parametrize("steps", [0, 1, 179, 2**64 + 3])
    @pytest.mark.parametrize("seed, base_shot", [
        (0, 0), (7, 2**32 - 2), (2**40 + 3, 2**33 + 1),
    ], ids=["low", "across-2**32", "two-word"])
    def test_jump_is_bit_exact(self, seed, base_shot, steps):
        shots = 4  # from 2**32 - 2, lanes on both sides of the boundary
        lanes = GeneratorLanes(seed, base_shot, shots)
        lanes.advance(steps)
        uniforms = lanes.random_block(3)
        strings = lanes.integers(np.arange(shots), 1, 16)
        for lane in range(shots):
            bits = np.random.PCG64(np.random.SeedSequence((seed, base_shot + lane)))
            bits.advance(steps)
            twin = np.random.Generator(bits)
            assert twin.random(3).tobytes() == uniforms[lane].tobytes()
            assert int(twin.integers(1, 16)) == strings[lane]

    def test_jump_drops_the_banked_half_word(self):
        lanes = GeneratorLanes(5, 0, 3)
        first = lanes.integers(np.arange(3), 1, 4)  # banks a 32-bit half
        lanes.advance(2)
        after = lanes.integers(np.arange(3), 1, 4)
        for lane in range(3):
            bits = np.random.PCG64(np.random.SeedSequence((5, lane)))
            twin = np.random.Generator(bits)
            assert int(twin.integers(1, 4)) == first[lane]
            bits.advance(2)
            assert int(twin.integers(1, 4)) == after[lane]

    @settings(max_examples=30, deadline=None)
    @given(first=st.integers(0, 2**70), second=st.integers(0, 2**70))
    @example(first=2**64 - 1, second=1)
    def test_jumps_compose(self, first, second):
        one = GeneratorLanes(3, 2**32 - 1, 3)
        one.advance(first)
        one.advance(second)
        both = GeneratorLanes(3, 2**32 - 1, 3)
        both.advance(first + second)
        assert one.random_block(2).tobytes() == both.random_block(2).tobytes()

    def test_negative_steps_raise(self):
        lanes = GeneratorLanes(0, 0, 2)
        with pytest.raises(ValueError, match="non-negative"):
            lanes.advance(-1)

    @pytest.mark.usefixtures("cold_prefixes")
    @pytest.mark.parametrize("depth", [0, 5, 40])
    def test_prefix_lanes_start_where_their_columns_end(self, depth):
        # a 16-column budget: depths below and past the stored prefix
        with mock.patch.object(rng_module, "PREFIX_BUDGET", 16 * 8):
            stream = stream_prefix(2, 2**32 - 4, 8)
            served = list(stream.columns(depth))
            lanes = stream.lanes_at(depth)
            draws = uniform_streams(2, 2**32 - 4, 8, depth + 3)
            assert all((column == draws[:, j]).all() for j, column in enumerate(served))
            assert lanes.random_block(3).tobytes() == draws[:, depth:].tobytes()
            # the jumped lanes share nothing the prefix goes on to draw from
            again = np.stack(list(stream.columns(depth + 3)), axis=1)
            assert (again == draws).all()


def _old_row_capacity(engine, gate_mask: np.ndarray, idle_draws: np.ndarray) -> int:
    """The row-compare formula ``_row_capacity`` replaced, for comparison."""
    forked = gate_mask.any(axis=1)
    capacity = 1 + int(forked.sum())
    if engine.model.idle_policy == "worst_case" and not forked.all():
        jumps = np.packbits(idle_draws[~forked] < engine.idle_gammas, axis=1)
        capacity += np.unique(jumps, axis=0).shape[0] - 1
    return capacity


class TestRowCapacity:
    """A static block's table is sized from its up-front draws, exactly."""

    @settings(max_examples=60, deadline=None)
    @given(
        lanes=st.integers(1, 40),
        ops=st.integers(0, 6),
        idle=st.sampled_from([0, 1, 7, 8, 9, 64, 65, 70]),
        seed=st.integers(0, 2**16),
        policy=st.sampled_from(["worst_case", "kraus"]),
    )
    def test_capacity_equals_the_row_compare_formula(self, lanes, ops, idle, seed, policy):
        rng = np.random.default_rng(seed)
        gate_mask = rng.random((lanes, ops)) < 0.1
        idle_draws = rng.random((lanes, idle))
        engine = mock.Mock(model=mock.Mock(idle_policy=policy),
                           idle_gammas=rng.random(idle) * 0.5)
        got = TrajectoryEngine._row_capacity(engine, gate_mask, idle_draws)
        assert got == _old_row_capacity(engine, gate_mask, idle_draws)

    @pytest.mark.parametrize("spec_index", [0, 1, 2])
    @pytest.mark.parametrize("t1_scale", [1.0, 0.02])
    def test_static_worst_case_block_never_regrows(self, spec_index, t1_scale, monkeypatch):
        spec = NoiseSpec.from_preset("pessimistic", t1_scale=t1_scale)
        engine = TrajectoryEngine(_pooled_compiled(spec_index), spec, track_state=True)
        assert engine.model.idle_policy == "worst_case" and not engine.is_dynamic
        grown = []
        reserve = kernel_module.RowTable._reserve

        def spied_reserve(state, rows):
            before = state.capacity
            reserve(state, rows)
            grown.append(state.capacity != before)

        monkeypatch.setattr(kernel_module.RowTable, "_reserve", spied_reserve)
        _, state, _, _, _ = engine._evolve_block(17, 0, 200)
        assert grown and not any(grown)
        assert state.count == state.capacity


class _DrawSpy:
    """Records, in call order, each ``integers`` draw and each noise injection."""

    def __init__(self, monkeypatch):
        self.events: list[tuple[str, int]] = []
        integers = GeneratorLanes.integers
        inject = kernel_module.inject_noise

        def spied_integers(lanes, picked, low, high):
            self.events.append(("draw", int(high)))
            return integers(lanes, picked, low, high)

        def spied_inject(state, site, fired, strings, *args):
            self.events.append(("inject", site.bound))
            return inject(state, site, fired, strings, *args)

        monkeypatch.setattr(GeneratorLanes, "integers", spied_integers)
        monkeypatch.setattr(kernel_module, "inject_noise", spied_inject)
        monkeypatch.setattr(trajectory_module, "inject_noise", spied_inject)

    def count(self, kind: str) -> int:
        return sum(1 for event, _ in self.events if event == kind)


class TestPredrawnStrings:
    """A static block draws every Pauli string before it evolves, in rounds."""

    SEED = 23
    SHOTS = 200

    def _slotted_fires(self, engine: TrajectoryEngine) -> np.ndarray:
        """Per lane of one block, its fired ops that carry a Pauli draw."""
        draws = GeneratorLanes(self.SEED, 0, self.SHOTS).random_block(engine._draws)
        gate_mask = draws[:, : len(engine.compiled.ops)] < engine.op_probs
        return gate_mask & (engine._schedule.bounds > 0)

    @pytest.mark.parametrize("spec_index", [0, 1, 2])
    @pytest.mark.parametrize("preset", ["table1", "pessimistic"])
    def test_static_block_draws_in_rounds_before_evolving(
        self, spec_index, preset, monkeypatch
    ):
        engine = _pooled_engine(spec_index, preset)
        fires = self._slotted_fires(engine)
        bounds = engine._schedule.bounds
        spy = _DrawSpy(monkeypatch)
        engine._evolve_block(self.SEED, 0, self.SHOTS)
        rounds = int(fires.sum(axis=1).max())
        distinct = len(set(bounds[fires.any(axis=0)].tolist()))
        assert 0 < spy.count("draw") <= rounds * distinct
        # every string is drawn before the first injection
        first_inject = [event for event, _ in spy.events].index("inject")
        assert spy.count("draw") == first_inject
        assert spy.count("inject") == int(fires.any(axis=0).sum())

    @pytest.mark.parametrize("spec_index", [3, 4], ids=["eqm", "qubit_only"])
    def test_dynamic_block_draws_at_each_site(self, spec_index, monkeypatch):
        engine = _pooled_engine(spec_index, "pessimistic")
        spy = _DrawSpy(monkeypatch)
        engine._evolve_block(self.SEED, 0, self.SHOTS)
        assert spy.count("inject") > 0
        # one draw right before each injection, with the site's bound
        assert len(spy.events) == 2 * spy.count("inject")
        for (draw, bound), (inject, site_bound) in zip(spy.events[::2], spy.events[1::2]):
            assert (draw, inject) == ("draw", "inject") and bound == site_bound

    @pytest.mark.usefixtures("cold_prefixes")
    @pytest.mark.parametrize("spec_index", range(len(_POOL_SPECS)))
    @pytest.mark.parametrize("warm", [None, -3, 5], ids=["cold", "shallower", "deeper"])
    def test_fused_equals_reference_byte_for_byte(self, spec_index, warm, monkeypatch):
        engine = _pooled_engine(spec_index, "pessimistic")
        shots, seed = 30, 31
        reference = engine.run_reference(shots, seed)
        for block in (shots, 7):  # one block, then blocks of 7 lanes
            monkeypatch.setattr(trajectory_module, "TRACKED_BLOCK_AMPLITUDES",
                                engine.dimension * block)
            # a small budget ends the stored prefix inside the engine's depth
            monkeypatch.setattr(rng_module, "PREFIX_BUDGET", block * (engine._draws // 2))
            stream_prefix.cache_clear()
            if warm is not None:  # an earlier cell of another depth read the stream
                for _ in stream_prefix(seed, 0, min(shots, block)).columns(
                        max(0, engine._draws + warm)):
                    pass
            assert pickle.dumps(engine.run(shots, seed)) == pickle.dumps(reference)
        vectors = list(engine.iter_final_vectors(6, seed))
        for shot, vector in enumerate(vectors):
            scalar = engine._run_shot(np.random.default_rng((seed, shot))).vector
            assert vector.tobytes() == scalar.tobytes()


class TestFinalVectorStreaming:
    """iter_final_vectors streams; final_vectors stays list-shaped but capped."""

    def test_iterator_matches_list_wrapper(self):
        engine = _pooled_engine(1, "table1")
        streamed = list(engine.iter_final_vectors(25, seed=9))
        listed = engine.final_vectors(25, seed=9)
        assert len(streamed) == len(listed) == 25
        for left, right in zip(streamed, listed):
            assert (left == right).all()

    def test_iterator_is_lazy(self):
        engine = _pooled_engine(1, "table1")
        iterator = engine.iter_final_vectors(10, seed=1)
        assert iter(iterator) is iterator  # a generator, not a list
        first = next(iterator)
        assert first.shape == (engine.dimension,)

    def test_list_wrapper_refuses_unbounded_shots(self):
        engine = _pooled_engine(1, "table1")
        with pytest.raises(ValueError, match="iter_final_vectors"):
            engine.final_vectors(FINAL_VECTORS_MAX_SHOTS + 1, seed=0)
        # the streaming API has no cap: it starts yielding immediately
        stream = engine.iter_final_vectors(FINAL_VECTORS_MAX_SHOTS + 1, seed=0)
        assert next(stream).shape == (engine.dimension,)

    def test_requires_track_state(self):
        compiled = SweepPoint("bv", 4, "eqm").execute().compiled
        engine = TrajectoryEngine(compiled, TABLE1)
        with pytest.raises(VerificationError):
            list(engine.iter_final_vectors(3, seed=0))

    def test_arguments_are_checked_at_call_time(self):
        compiled = SweepPoint("bv", 4, "eqm").execute().compiled
        # no next(): the call itself must raise
        with pytest.raises(VerificationError):
            TrajectoryEngine(compiled, TABLE1).iter_final_vectors(-1, 0)
        engine = _pooled_engine(1, "table1")
        with pytest.raises(ValueError, match="shots"):
            engine.iter_final_vectors(-1, 0)
        with pytest.raises(ValueError, match="base_shot"):
            engine.iter_final_vectors(3, 0, base_shot=-1)

    @pytest.mark.parametrize("track_state", [False, True])
    def test_run_rejects_negative_base_shot(self, track_state):
        engine = (
            _pooled_engine(1, "table1") if track_state
            else TrajectoryEngine(_pooled_compiled(1), TABLE1)
        )
        with pytest.raises(ValueError, match="base_shot"):
            engine.run(5, 0, base_shot=-1)
        # the scalar oracle rejects the same range with the same error type
        with pytest.raises(ValueError):
            engine.run_reference(5, 0, base_shot=-1)

    def test_dynamic_vectors_stream_too(self):
        engine = _pooled_engine(3, "table1")
        vectors = list(engine.iter_final_vectors(8, seed=4))
        assert len(vectors) == 8
        for vector in vectors:
            assert vector.shape == (engine.dimension,)
            assert np.isfinite(vector).all()
