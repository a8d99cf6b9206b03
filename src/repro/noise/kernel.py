"""Fused shot-evolution kernel programs for the trajectory hot path.

This module compiles each :class:`~repro.compiler.result.CompiledCircuit`
**once** into a flat kernel program that the trajectory engine's block
loops execute without per-op Python dispatch:

* Every op carries its :class:`~repro.simulation.batched.ApplyPlan` —
  target axis order, GEMM operand shape, wide-panel eligibility — built
  at compile by :func:`~repro.simulation.batched.build_plan`, the same
  function the eager :class:`~repro.simulation.batched.BatchedMixedRadixState`
  calls per apply, so the hot loop does pure data movement plus GEMMs.
* :class:`FusedRun` is a maximal stretch of non-dynamic ops compiled into
  a flat schedule of :class:`UnitaryStep` and :class:`NoiseSite` items.
  Executing a run keeps the amplitudes in a **lazily-permuted layout**:
  each unitary's GEMM leaves the tensor in that op's permuted layout,
  and the next op gathers directly from there — the per-op scatter pass
  back to the canonical layout is skipped entirely (one restore at the
  end of the run).  Adjacent ops on the same unit tuple share a layout,
  so their GEMMs run back to back with **zero** copies between them.
* A run evolves **distinct trajectories, not shots**.  Every lane of a
  fresh block starts in |0…0>, so the block enters its first run as one
  row that all lanes share, and a lane→row map records which row each
  lane reads.  Unitary steps touch only the rows.  At a noise site, a
  fired lane on a shared row first gets its own copy of it, then takes
  its Pauli; a lane that owns its row takes it in place.  Rows never
  merge.  At ``table1`` error rates most lanes never fire, so most of
  a block's GEMM work collapses into the one shared row.  The run ends
  by expanding the rows to the per-lane ``(lanes, dimension)`` matrix
  with one gather, so idle decay, fidelities and dynamic ops still see
  one independent vector per lane.
* :class:`EventKernel` is the event-only engine's program: one fused
  threshold vector, compared column by column with the draws as the RNG
  lanes make them, so no draw matrix is ever held.

Bit-equality invariant: the fused program performs the **same arithmetic
on the same values in the same order** as the scalar
:class:`~repro.simulation.statevector.MixedRadixState` pipeline, for
every lane.  Layout transitions compose transposes — exact index
bookkeeping — and every GEMM operand is materialised C-contiguous
exactly where the eager pipeline's reshape copy would have materialised
it.  A shared row holds exactly the values each of its lanes would hold,
and a fork copies them bit for bit, so evolving one row instead of ``k``
equal lanes changes only how many columns a GEMM sees: the stacked
layout issues one call per row, exactly as per lane, and the wide layout
already relies on column-panel independence (probed once per process by
:func:`~repro.simulation.batched._wide_panels_bitstable`).  The golden
tests assert fused chunks ``==`` the scalar ``run_reference``
across presets x strategies x seeds x block splits, and pin the row
count so that sharing cannot silently stop.

Kernel schedules are cached on the compiled artifact
(:meth:`~repro.compiler.result.CompiledCircuit.cached_schedule`), keyed
by register dims — every engine over one artifact (one per noise model)
shares one compiled program.  Kernel programs never enter point content
keys: they change how results are computed, not what they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from repro.pulses.unitaries import qubit_gate
from repro.simulation.batched import ApplyPlan, build_plan
from repro.simulation.verify import embed_on_slots

#: Pauli codes used when a depolarizing event fires (0 = identity).
_PAULI_NAMES = ("i", "x", "y", "z")


# ----------------------------------------------------------------------
# program items
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UnitaryStep:
    """One embedded op unitary with its precomputed plan."""

    op_index: int
    matrix: np.ndarray
    plan: ApplyPlan


@dataclass(frozen=True)
class NoiseSite:
    """One op's depolarizing error site, Pauli operators pre-embedded.

    ``paulis[position][code - 1]`` is the embedded ``(matrix, plan)`` for
    Pauli ``code`` (1=X, 2=Y, 3=Z) on slot ``position`` — the per-op dict
    lookups and re-embeddings of the eager path, done once at compile.
    """

    op_index: int
    slots: tuple[tuple[int, int], ...]
    #: Exclusive upper bound of the Pauli-string draw (``4 ** len(slots)``).
    bound: int
    paulis: tuple[tuple[tuple[np.ndarray, ApplyPlan], ...], ...]


@dataclass(frozen=True)
class FusedRun:
    """A maximal stretch of non-dynamic ops, executed in lazy layout."""

    items: tuple[UnitaryStep | NoiseSite, ...]
    #: The unitary steps alone — the noise-free pass a dynamic program's
    #: parallel ideal batch takes through the same stretch.
    unitaries: tuple[UnitaryStep, ...]


# ----------------------------------------------------------------------
# the lazily-permuted batch tensor
# ----------------------------------------------------------------------
class _LazyState:
    """Cursor over one block's distinct trajectories in a lazily-tracked layout.

    The tensor holds **rows**: a ``shared`` block starts as one trunk row
    (row 0) that every lane reads and none owns, and ``lane_rows`` maps
    each lane to its row; otherwise row ``i`` is lane ``i``'s own.
    ``layout`` records the current axis order over the canonical
    ``(rows,) + dims`` tensor; transitions compose transposes (views)
    and materialise exactly one C-contiguous copy per layout change — the
    copy the eager pipeline's pre-GEMM reshape would have made — while
    the eager path's post-GEMM scatter back to canonical is skipped.
    """

    __slots__ = ("dims", "count", "tensor", "layout", "_identity", "lane_rows")

    def __init__(self, dims: tuple[int, ...], amps: np.ndarray, shared: bool = False) -> None:
        self.dims = dims
        self.lane_rows = np.zeros(amps.shape[0], dtype=np.intp) if shared else None
        rows = amps[:1] if shared else amps
        self.count = rows.shape[0]
        self.tensor = rows.reshape((self.count,) + dims)
        self._identity = tuple(range(len(dims) + 1))
        self.layout = self._identity

    def _to_layout(self, tensor: np.ndarray, target: tuple[int, ...]) -> np.ndarray:
        """View of ``tensor`` (held in ``self.layout``) in ``target`` order."""
        if self.layout == target:
            return tensor
        layout = self.layout
        return tensor.transpose(tuple(layout.index(axis) for axis in target))

    def fork(self, lanes: np.ndarray) -> np.ndarray:
        """The rows ``lanes`` own, first copying the trunk for lanes still on it.

        The copies are appended along the batch axis in the current
        layout: the same values, so every later GEMM sees the operand the
        lane's own vector would have given it.  Rows never merge.
        """
        if self.lane_rows is None:
            return lanes
        rows = self.lane_rows[lanes]
        on_trunk = np.flatnonzero(rows == 0)
        if on_trunk.size:
            batch_axis = self.layout.index(0)
            copies = np.take(self.tensor, rows[on_trunk], axis=batch_axis)
            self.tensor = np.concatenate((self.tensor, copies), axis=batch_axis)
            rows[on_trunk] = np.arange(self.count, self.count + on_trunk.size)
            self.count += on_trunk.size
            self.lane_rows[lanes] = rows
        return rows

    def apply_all(self, matrix: np.ndarray, plan: ApplyPlan) -> None:
        """Apply ``matrix`` to every row, leaving the state in ``plan``'s layout."""
        view = self._to_layout(self.tensor, plan.axes)
        # the same values in the same layout the eager pre-GEMM copy produces
        product = matrix @ plan.operand(view, self.count)
        self.tensor = product.reshape(plan.shape(self.count))
        self.layout = plan.axes

    def apply_rows(self, matrix: np.ndarray, plan: ApplyPlan, rows: np.ndarray) -> None:
        """Apply ``matrix`` to a row subset, preserving the current layout.

        Mirrors the eager lane-masked apply (gather, transform, scatter)
        except the gather/scatter address the current lazy layout — the
        GEMM operand is bit-identical because gathering rows and
        permuting axes commute exactly.
        """
        batch_axis = self.layout.index(0)
        selected = np.take(self.tensor, rows, axis=batch_axis)
        view = self._to_layout(selected, plan.axes)
        count = int(rows.size)
        product = matrix @ plan.operand(view, count)
        permuted = product.reshape(plan.shape(count))
        back = tuple(plan.axes.index(axis) for axis in self.layout)
        index = (slice(None),) * batch_axis + (rows,)
        self.tensor[index] = permuted.transpose(back)

    def restore(self) -> np.ndarray:
        """The canonical per-lane ``(lanes, dimension)`` amplitude matrix.

        Expands the rows with one gather, so every lane gets a vector of
        its own (lanes that shared a row get equal, independent copies).
        """
        view = self._to_layout(self.tensor, self._identity)
        rows = view.reshape(self.count, -1)
        return rows if self.lane_rows is None else rows[self.lane_rows]


# ----------------------------------------------------------------------
# the compiled program
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelSchedule:
    """One compiled circuit's flat kernel program.

    ``segments`` alternates :class:`FusedRun` stretches with bare op
    indices — the dynamic ops (mid-circuit measurement/reset, conditioned
    ops) the engine must handle in canonical layout with per-lane branch
    masks.  Static circuits compile to a single fused run.
    """

    dims: tuple[int, ...]
    segments: tuple[FusedRun | int, ...]
    num_ops: int

    def execute_run(
        self,
        run: FusedRun,
        amps: np.ndarray,
        gate_mask: np.ndarray,
        rng_lanes,
        shared: bool = False,
    ) -> np.ndarray:
        """Execute one fused run on ``amps`` (``(lanes, dimension)``, owned).

        ``shared`` says every lane of ``amps`` holds the same vector (a
        fresh block): the run then evolves that one row, and a lane gets
        its own copy only when its gate error fires.  ``rng_lanes`` is the
        block's :class:`~repro.noise.rng.GeneratorLanes`; fired noise sites
        draw their Pauli strings mid-run at exactly the stream positions
        the scalar loop would use.  Returns the evolved canonical per-lane
        amplitude matrix (which may alias ``amps``'s storage).
        """
        state = _LazyState(self.dims, amps, shared)
        for item in run.items:
            if type(item) is UnitaryStep:
                state.apply_all(item.matrix, item.plan)
            else:
                fired = np.flatnonzero(gate_mask[:, item.op_index])
                if fired.size:
                    strings = rng_lanes.integers(fired, 1, item.bound)
                    self._inject_paulis(state, item, state.fork(fired), strings)
        return state.restore()

    def execute_run_unitaries(
        self, run: FusedRun, amps: np.ndarray, lanes: np.ndarray
    ) -> None:
        """Apply a run's unitaries to the ``lanes`` subset of ``amps``, in place.

        The dynamic ideal-batch pass: no noise, lane-gathered once per run
        instead of once per op (``alive`` cannot change inside a run).
        """
        if not run.unitaries or not lanes.size:
            return
        state = _LazyState(self.dims, amps[lanes])
        for step in run.unitaries:
            state.apply_all(step.matrix, step.plan)
        amps[lanes] = state.restore()

    @staticmethod
    def _inject_paulis(
        state: _LazyState, site: NoiseSite, rows: np.ndarray, strings: np.ndarray
    ) -> None:
        """Inject each fired lane's sampled Pauli string into its own row.

        ``rows[i]`` is the row the lane that drew ``strings[i]`` owns;
        rows are grouped by string value.
        """
        width = len(site.slots)
        for value in np.unique(strings):
            group = rows[strings == value]
            for position in range(width):
                code = (int(value) >> (2 * (width - 1 - position))) & 3
                if code == 0:
                    continue
                matrix, plan = site.paulis[position][code - 1]
                state.apply_rows(matrix, plan, group)


def compile_schedule(compiled, dims: tuple[int, ...], op_unitaries) -> KernelSchedule:
    """Compile (and cache on the artifact) ``compiled``'s kernel schedule.

    ``op_unitaries`` is the engine's embedded-unitary list (one entry per
    op, ``None`` for measurements) — deterministic per ``(compiled, dims)``,
    which is why caching by dims alone is sound.
    """
    dims = tuple(int(d) for d in dims)
    return compiled.cached_schedule(
        ("trajectory-kernel", dims),
        lambda: _build_schedule(compiled, dims, op_unitaries),
    )


def _build_schedule(compiled, dims: tuple[int, ...], op_unitaries) -> KernelSchedule:
    # memoised per schedule, so equal plans and Paulis are shared objects
    @cache
    def plan_for(units: tuple[int, ...]) -> ApplyPlan:
        return build_plan(dims, units)

    @cache
    def pauli_for(unit: int, slot: int, code: int) -> tuple[np.ndarray, ApplyPlan]:
        matrix, units = embed_on_slots(dims, qubit_gate(_PAULI_NAMES[code]), ((unit, slot),))
        return matrix, plan_for(units)

    segments: list[FusedRun | int] = []
    items: list[UnitaryStep | NoiseSite] = []

    def flush() -> None:
        if items:
            segments.append(
                FusedRun(
                    items=tuple(items),
                    unitaries=tuple(i for i in items if type(i) is UnitaryStep),
                )
            )
            items.clear()

    for index, op in enumerate(compiled.ops):
        if op.is_dynamic:
            flush()
            segments.append(index)
            continue
        embedded = op_unitaries[index]
        if embedded is not None:
            matrix, units = embedded
            items.append(UnitaryStep(index, matrix, plan_for(tuple(units))))
        if op.slots:
            slots = tuple(op.slots)
            items.append(
                NoiseSite(
                    op_index=index,
                    slots=slots,
                    bound=4 ** len(slots),
                    paulis=tuple(
                        tuple(pauli_for(unit, slot, code) for code in (1, 2, 3))
                        for unit, slot in slots
                    ),
                )
            )
    flush()
    return KernelSchedule(dims=dims, segments=tuple(segments), num_ops=len(compiled.ops))


# ----------------------------------------------------------------------
# the event-only kernel
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EventKernel:
    """The event-only engine's flat program: one fused threshold vector.

    Concatenates the per-op error probabilities and per-qubit idle decay
    gammas so a whole block's events come from one pass over the stream,
    one vectorised compare per draw.  The values and IEEE predicates are
    exactly the scalar loop's, so the counts are bit-identical.
    """

    thresholds: np.ndarray
    num_ops: int

    def count_block(self, lanes) -> tuple[np.ndarray, np.ndarray]:
        """Per-lane gate and idle event counts, drawing one column at a time.

        ``lanes`` is the block's :class:`~repro.noise.rng.GeneratorLanes`.
        Column ``j`` of every lane's stream is drawn with ``lanes.random()``,
        compared with ``thresholds[j]`` and added into the lanes' counts, so
        no ``(lanes, draws)`` matrix is ever built.  Afterwards the lanes
        stand where ``random_block(len(thresholds))`` would leave them.
        """
        fired = np.empty(lanes.shots, dtype=bool)
        counts = []
        for thresholds in (self.thresholds[: self.num_ops], self.thresholds[self.num_ops:]):
            total = np.zeros(lanes.shots, dtype=np.int64)
            for threshold in thresholds:
                np.less(lanes.random(), threshold, out=fired)
                np.add(total, fired, out=total)
            counts.append(total)
        return counts[0], counts[1]


def build_event_kernel(op_probs: np.ndarray, idle_gammas: np.ndarray) -> EventKernel:
    """Fuse the two threshold vectors into one :class:`EventKernel`."""
    thresholds = np.concatenate([
        np.asarray(op_probs, dtype=np.float64),
        np.asarray(idle_gammas, dtype=np.float64),
    ])
    return EventKernel(thresholds=thresholds, num_ops=len(op_probs))
