"""Fused shot-evolution kernel programs for the trajectory hot path.

This module compiles each :class:`~repro.compiler.result.CompiledCircuit`
**once** into a flat kernel program that the trajectory engine's block
loops execute without per-op Python dispatch:

* Every op carries its :class:`~repro.simulation.batched.ApplyPlan` —
  target axis order, GEMM operand shape, wide-panel eligibility — taken
  at compile from :func:`~repro.simulation.batched.build_plan`'s process
  memo, the same plans the eager
  :class:`~repro.simulation.batched.BatchedMixedRadixState` applies with,
  and, when its matrix is monomial (one unit-phase entry per row and
  column: Paulis, CX, CZ, SWAP, ``enc``/``dec``, ``swap4``), its
  :class:`~repro.simulation.statevector.MoveTable` from
  :func:`~repro.simulation.verify.monomial_moves`' process memo.  The hot
  loop does pure data movement, exact gathers with phases and GEMMs for
  the dense ops only.
* :class:`FusedRun` is a maximal stretch of non-dynamic ops compiled into
  a flat schedule of :class:`UnitaryStep` and :class:`NoiseSite` items.
  Executing a run keeps the amplitudes in a **lazily-permuted layout**:
  each dense unitary's GEMM leaves the tensor in that op's permuted
  layout, and the next op gathers directly from there — the per-op
  scatter pass back to the canonical layout is skipped entirely.
  Adjacent ops on the same unit tuple share a layout, so their GEMMs run
  back to back with **zero** copies between them.  A monomial step is one
  strided pass with no GEMM: it reads the rows in their current layout
  and writes them C-contiguous straight into the layout the next dense
  step needs.  A fired Pauli is a gather along its unit's axis on the
  forked rows, folded into the fork copy where the fork copies.
* A tracked block is a :class:`RowTable` from its first op to its last:
  it evolves **distinct trajectories, not shots**.  Every lane of a
  fresh block starts in |0…0>, so the block starts as one row that all
  lanes share, and a lane→row map records which row each lane reads.
  Unitary steps touch only the rows.  Rows split by one rule: lanes that
  need a different op from the other lanes on their row get a copy of
  it, grouped by (row, key), and a row whose lanes all take the op is
  updated in place — a fired gate error (keyed by the lane), a damping
  jump, a mid-circuit outcome, a condition.  Rows never merge.  At
  ``table1`` error rates most lanes never fire, so most of a block's
  GEMM work collapses into the one shared row; idle decay, dynamic ops
  and fidelities (:mod:`repro.noise.trajectory`) act on rows as well, and
  only ``iter_final_vectors`` ever expands rows into per-lane vectors.
  The table owns its storage: every layout copy, GEMM and fork writes
  into buffers allocated once per block.
* :class:`EventKernel` is the event-only engine's program: one fused
  threshold vector, compared column by column with the draws that a
  :class:`~repro.noise.rng.StreamPrefix` serves.  No draw matrix is built
  per block: the first columns come from a bounded, shared prefix that
  every kernel over the same stream reads, and deeper columns are drawn
  one at a time.

Bit-equality invariant: the fused program performs the **same arithmetic
on the same values in the same order** as the scalar
:class:`~repro.simulation.statevector.MixedRadixState` pipeline, for
every lane, byte for byte.  Layout transitions compose transposes —
exact index bookkeeping — and every GEMM operand is materialised
C-contiguous exactly where the eager pipeline's reshape copy would have
materialised it.  A monomial operator is an exact gather in both: the
scalar oracle applies the same move table through the same
:func:`~repro.simulation.statevector.gather_moves` (a GEMM would give the
same values but may flip the sign of an exact zero).  A shared row holds
exactly the values each of its lanes would hold,
and a fork copies them bit for bit, so evolving one row instead of ``k``
equal lanes changes only how many columns a GEMM sees: the stacked
layout issues one call per row, exactly as per lane, and the wide layout
already relies on column-panel independence (probed once per process by
:func:`~repro.simulation.batched._wide_panels_bitstable`).  The golden
tests assert fused results ``==`` the scalar ``run_reference``
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
from functools import lru_cache

import numpy as np

from repro.pulses.unitaries import qubit_gate
from repro.simulation.batched import (
    DEAD_BRANCH_WEIGHT,
    ApplyPlan,
    build_plan,
    unit_populations,
)
from repro.simulation.statevector import MoveTable, gather_moves, permute_moves
from repro.simulation.verify import embed_on_slots, monomial_moves

#: Pauli codes used when a depolarizing event fires (0 = identity).
_PAULI_NAMES = ("i", "x", "y", "z")


# ----------------------------------------------------------------------
# program items
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Operator:
    """One embedded operator with its precomputed plan and move table.

    ``moves`` is the matrix's :class:`~repro.simulation.statevector.MoveTable`
    when it is monomial — a row table then applies it as one gather with
    phases, no GEMM — and ``None`` when it is dense.
    """

    matrix: np.ndarray
    plan: ApplyPlan
    moves: MoveTable | None


@dataclass(frozen=True)
class UnitaryStep(Operator):
    """One op's embedded unitary."""

    op_index: int


@dataclass(frozen=True)
class NoiseSite:
    """One op's depolarizing error site, Pauli operators pre-embedded.

    ``paulis[position][code - 1]`` is the embedded :class:`Operator` for
    Pauli ``code`` (1=X, 2=Y, 3=Z) on slot ``position`` — the per-op dict
    lookups and re-embeddings of the eager path, done once at compile.
    Embedded Paulis are monomial, so each carries its move table.
    """

    op_index: int
    slots: tuple[tuple[int, int], ...]
    #: Exclusive upper bound of the Pauli-string draw (``4 ** len(slots)``).
    bound: int
    paulis: tuple[tuple[Operator, ...], ...]


@dataclass(frozen=True)
class FusedRun:
    """A maximal stretch of non-dynamic ops, executed in lazy layout."""

    items: tuple[UnitaryStep | NoiseSite, ...]
    #: Per item, the layout the rows take next: the next *dense* unitary
    #: step's, or canonical past the run's last one.  A monomial step
    #: gathers straight into it, and a noise site whose forks must widen a
    #: wide-layout tensor widens it straight into it, so the next GEMM's
    #: operand is already laid out when it runs.
    ahead: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DynamicOp:
    """A dynamic op's precompiled parts, for the engine's row-table handlers.

    ``step`` is the conditioned op's unitary (``None`` for mid-circuit
    measurement and reset), ``site`` its depolarizing error site (``None``
    when the op touches no encoded qubit), ``flip`` the X a ``reset``
    applies to rows that measured |1> (``None`` for every other op).
    """

    step: UnitaryStep | None
    site: NoiseSite | None
    flip: Operator | None


# ----------------------------------------------------------------------
# the row table: one tracked block's distinct trajectories
# ----------------------------------------------------------------------
@lru_cache(maxsize=1024)
def _permutation(source: tuple[int, ...], target: tuple[int, ...]) -> tuple[int, ...]:
    """The transpose taking a tensor held in ``source`` axis order to ``target``."""
    return tuple(source.index(axis) for axis in target)


@lru_cache(maxsize=1024)
def _unit_axes(layout: tuple[int, ...], units: tuple[int, ...]) -> tuple[int, ...]:
    """Where each of ``units``' axes sits in a tensor held in ``layout`` order."""
    return tuple(layout.index(unit + 1) for unit in units)


@lru_cache(maxsize=1024)
def _around_batch(
    dims: tuple[int, ...], layout: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The axis lengths before and after the batch axis of ``layout``."""
    cut = layout.index(0)
    return (
        tuple(dims[axis - 1] for axis in layout[:cut]),
        tuple(dims[axis - 1] for axis in layout[cut + 1:]),
    )


class RowTable:
    """One tracked block's distinct trajectories, in a lazily-tracked layout.

    The tensor holds **rows**; ``lane_rows`` maps each lane to the row it
    reads.  A fresh table is one |0…0> row every lane shares.  Rows split
    by one rule (:meth:`split`, :meth:`fork`): lanes that need a different
    op from the other lanes on their row get a copy of it, and a row whose
    lanes all take the same op is updated in place.  Rows never merge.

    ``layout`` records the current axis order over the canonical
    ``(rows,) + dims`` tensor.  Transitions compose transposes (views) and
    materialise exactly one C-contiguous copy per layout change — the copy
    the eager pipeline's pre-GEMM reshape would have made — while the eager
    path's post-GEMM scatter back to canonical is skipped.

    Storage is two flat buffers the table owns, each sized for
    ``capacity`` rows: the tensor always fills a prefix of ``_front``, and
    every layout copy and GEMM writes into ``_back`` (``matmul(..., out=)``)
    before the two swap; Kraus ops add a third, ``_scratch``, on first use.
    A table sized right up front therefore allocates once; a split past
    the capacity regrows the buffers geometrically.
    """

    __slots__ = ("dims", "dimension", "count", "layout", "lane_rows",
                 "_front", "_back", "_scratch", "_identity")

    def __init__(self, dims: tuple[int, ...], lanes: int, capacity: int = 1) -> None:
        self.dims = dims
        self.dimension = int(np.prod(dims))
        self._front = np.empty(max(1, capacity) * self.dimension, dtype=complex)
        self._back = np.empty_like(self._front)
        self._scratch: np.ndarray | None = None  # Kraus GEMM output, made on first use
        self._front[: self.dimension] = 0.0
        self._front[0] = 1.0
        self.count = 1
        self.lane_rows = np.zeros(lanes, dtype=np.intp)
        self._identity = tuple(range(len(dims) + 1))
        self.layout = self._identity

    @property
    def capacity(self) -> int:
        """Rows the owned buffers hold before a split must regrow them."""
        return self._front.size // self.dimension

    def _view(self, buffer: np.ndarray, layout: tuple[int, ...], count: int) -> np.ndarray:
        """``buffer``'s prefix as a ``count``-row tensor in ``layout`` order."""
        before, after = _around_batch(self.dims, layout)
        return buffer[: count * self.dimension].reshape(before + (count,) + after)

    @property
    def tensor(self) -> np.ndarray:
        """The rows, in the current ``layout`` (a view of the storage)."""
        return self._view(self._front, self.layout, self.count)

    def _to_layout(self, tensor: np.ndarray, target: tuple[int, ...]) -> np.ndarray:
        """View of ``tensor`` (held in ``self.layout``) in ``target`` order."""
        if self.layout == target:
            return tensor
        return tensor.transpose(_permutation(self.layout, target))

    def _relayout(self, target: tuple[int, ...]) -> None:
        """Copy the rows into ``target`` order, C-contiguous, in owned storage."""
        if self.layout != target:
            np.copyto(self._view(self._back, target, self.count),
                      self._to_layout(self.tensor, target))
            self._front, self._back = self._back, self._front
            self.layout = target

    def _reserve(self, rows: int) -> None:
        """Make room for ``rows`` rows, regrowing both buffers if needed."""
        if rows <= self.capacity:
            return
        used = self.count * self.dimension
        grown = np.empty(max(rows, 2 * self.capacity) * self.dimension, dtype=complex)
        grown[:used] = self._front[:used]
        self._front, self._back = grown, np.empty_like(grown)

    # ------------------------------------------------------------------
    # splitting
    # ------------------------------------------------------------------
    def _copy_rows(
        self,
        sources: np.ndarray,
        ahead: tuple[int, ...] | None = None,
        keys: np.ndarray | None = None,
        operators: tuple[Operator, ...] = (),
    ) -> np.ndarray:
        """Append copies of rows ``sources``; return the new rows' indices.

        The copies hold the same values, so every later GEMM sees the
        operand the lane's own vector would have given it.  With the batch
        axis leading the layout they land in spare capacity; otherwise the
        tensor is rebuilt wider in owned storage — in layout ``ahead``
        when given, so the rebuild doubles as the next layout change.

        With ``keys``, the copy of ``sources[i]`` is written already
        transformed by the monomial ``operators[keys[i] - 1]`` (key 0: a
        plain copy): the copy *is* that operator's gather.  The copies are
        laid out grouped by key, so each group is one contiguous block.
        """
        start = self.count
        count = sources.size
        total = start + count
        self._reserve(total)
        tensor = self.tensor
        axis = self.layout.index(0)
        target = self.layout if axis == 0 or ahead is None else ahead
        lead = (slice(None),) * target.index(0)
        if axis == 0:
            copies = self._front[start * self.dimension: total * self.dimension].reshape(
                (count,) + tensor.shape[1:])
        else:
            grown = self._view(self._back, target, total)
            np.copyto(grown[lead + (slice(0, start),)], self._to_layout(tensor, target))
            copies = grown[lead + (slice(start, total),)]
        rows = np.arange(start, total)
        if keys is None:
            if axis == 0:
                np.take(tensor, sources, axis=0, mode="clip", out=copies)
            else:
                np.copyto(copies, self._to_layout(np.take(tensor, sources, axis=axis), target))
        else:
            order = np.argsort(keys, kind="stable")
            rows[order] = np.arange(start, total)
            taken = self._to_layout(np.take(tensor, sources[order], axis=axis), target)
            bounds = np.searchsorted(keys[order], np.arange(len(operators) + 2))
            for key in range(len(operators) + 1):
                if bounds[key] == bounds[key + 1]:
                    continue
                block = lead + (slice(bounds[key], bounds[key + 1]),)
                if key == 0:
                    np.copyto(copies[block], taken[block])
                else:
                    operator = operators[key - 1]
                    gather_moves(operator.moves, _unit_axes(target, operator.plan.units),
                                 taken[block], copies[block])
        if axis != 0:
            self._front, self._back = self._back, self._front
            self.layout = target
        self.count = total
        return rows

    def fork(
        self,
        lanes: np.ndarray,
        keys: np.ndarray,
        operators: tuple[Operator, ...],
        ahead: tuple[int, ...] | None = None,
    ) -> np.ndarray:
        """Give every lane in ``lanes`` a row only it reads, transformed by its key.

        The gate-error split, keyed by the lane itself: each fired lane
        draws its own Pauli string, so a lane sharing its row gets a copy
        and a lane alone on its row keeps it.  The trunk (row 0) is never
        handed to one lane, so a static block ends its run with exactly
        one row more than it has forked lanes.  Each lane's row then takes
        the monomial ``operators[key - 1]`` (key 0: none) — folded into
        the copy for a lane that gets one (:meth:`_copy_rows`, towards
        layout ``ahead``), gathered in place for a lane that keeps its
        row.  Returns the lanes' rows.
        """
        rows = self.lane_rows[lanes]
        shared = (np.bincount(self.lane_rows, minlength=self.count)[rows] > 1) | (rows == 0)
        if shared.any():
            rows[shared] = self._copy_rows(rows[shared], ahead, keys[shared], operators)
            self.lane_rows[lanes] = rows
        for key, operator in enumerate(operators, start=1):
            group = rows[~shared & (keys == key)]
            if group.size:
                self.apply_to_rows(operator, group)
        return rows

    def split(self, lanes: np.ndarray, keys: np.ndarray | None = None) -> np.ndarray:
        """Give each (row, key) group of ``lanes`` a row only it reads.

        ``keys`` (0/1 or bool, one per lane; ``None`` = one key) names the
        op each lane takes next.  A group holding every lane of its row
        keeps the row; any other group gets a copy.  Returns each lane's
        row after the split.
        """
        rows = self.lane_rows[lanes]
        groups = rows if keys is None else 2 * rows + keys
        _, first, inverse, sizes = np.unique(
            groups, return_index=True, return_inverse=True, return_counts=True
        )
        sources = rows[first]
        moving = sizes < np.bincount(self.lane_rows, minlength=self.count)[sources]
        if moving.any():
            targets = sources.copy()
            targets[moving] = self._copy_rows(sources[moving])
            rows = targets[inverse]
            self.lane_rows[lanes] = rows
        return rows

    # ------------------------------------------------------------------
    # evolution
    # ------------------------------------------------------------------
    def apply(self, operator: Operator, ahead: tuple[int, ...]) -> None:
        """Apply ``operator`` to every row: a gather into ``ahead`` if monomial, else a GEMM."""
        if operator.moves is None:
            self.apply_all(operator.matrix, operator.plan)
        else:
            self.gather_all(operator.moves, operator.plan, ahead)

    def apply_to_rows(self, operator: Operator, rows: np.ndarray) -> None:
        """Apply ``operator`` to the distinct ``rows``, keeping the current layout."""
        if operator.moves is None:
            self.apply_rows(operator.matrix, operator.plan, rows)
        else:
            self.gather_rows(operator.moves, operator.plan, rows)

    def apply_all(self, matrix: np.ndarray, plan: ApplyPlan) -> None:
        """Apply ``matrix`` to every row, leaving the rows in ``plan``'s layout."""
        # the same values in the same layout the eager pre-GEMM copy produces
        self._relayout(plan.axes)
        size = self.count * self.dimension
        operand = plan.operand(self._front[:size].reshape(plan.shape(self.count)), self.count)
        np.matmul(matrix, operand, out=self._back[:size].reshape(operand.shape))
        self._front, self._back = self._back, self._front

    def gather_all(self, moves: MoveTable, plan: ApplyPlan, target: tuple[int, ...]) -> None:
        """Apply a monomial operator to every row in one pass, into ``target`` layout.

        Each move reads the rows in their current layout and writes them
        C-contiguous in ``target`` order: no relayout, no GEMM.  When the
        rows already sit in ``target`` order the moves run in place and
        only the blocks that change are touched.
        """
        if self.layout == target:
            permute_moves(moves, _unit_axes(target, plan.units), self.tensor, self._back)
            return
        gather_moves(moves, _unit_axes(target, plan.units),
                     self._to_layout(self.tensor, target),
                     self._view(self._back, target, self.count))
        self._front, self._back = self._back, self._front
        self.layout = target

    def apply_rows(self, matrix: np.ndarray, plan: ApplyPlan, rows: np.ndarray) -> None:
        """Apply ``matrix`` to a row subset, preserving the current layout.

        Mirrors the eager lane-masked apply (gather, transform, scatter)
        except the gather/scatter address the current lazy layout — the
        GEMM operand is bit-identical because gathering rows and
        permuting axes commute exactly.
        """
        tensor = self.tensor
        batch_axis = self.layout.index(0)
        selected = np.take(tensor, rows, axis=batch_axis)
        view = self._to_layout(selected, plan.axes)
        count = int(rows.size)
        product = np.matmul(matrix, plan.operand(view, count))
        permuted = product.reshape(plan.shape(count))
        index = (slice(None),) * batch_axis + (rows,)
        tensor[index] = permuted.transpose(_permutation(plan.axes, self.layout))

    def gather_rows(self, moves: MoveTable, plan: ApplyPlan, rows: np.ndarray) -> None:
        """Apply a monomial operator to a row subset, in the current layout."""
        tensor = self.tensor
        index = (slice(None),) * self.layout.index(0) + (rows,)
        selected = tensor[index]
        permute_moves(moves, _unit_axes(self.layout, plan.units), selected)
        tensor[index] = selected

    def apply_kraus(self, matrix: np.ndarray, plan: ApplyPlan, rows: np.ndarray) -> np.ndarray:
        """Apply a Kraus operator to the distinct ``rows`` and renormalise them.

        The eager pipeline step by step, each into owned storage: gather
        the canonical rows (``_scratch``), copy them into ``plan``'s layout
        (``_back``), GEMM into ``_scratch``, scatter the product back to
        canonical rows (``_back``), weigh each row with the scalar path's
        ``np.vdot`` and write the renormalised rows home.  Returns each
        row's branch weight, 0.0 where the branch is impossible (the row
        keeps its values, exactly like the scalar class).
        """
        amps = self.canonical()
        count = int(rows.size)
        size = count * self.dimension
        if self._scratch is None or self._scratch.size < self._back.size:
            self._scratch = np.empty_like(self._back)
        gathered = self._scratch[:size].reshape(count, self.dimension)
        np.take(amps, rows, axis=0, out=gathered, mode="clip")
        operand = self._back[:size].reshape(plan.shape(count))
        np.copyto(operand, gathered.reshape((count,) + self.dims).transpose(plan.axes))
        operand = plan.operand(operand, count)
        product = self._scratch[:size].reshape(operand.shape)
        np.matmul(matrix, operand, out=product)
        branches = self._back[:size].reshape(count, self.dimension)
        np.copyto(branches.reshape((count,) + self.dims),
                  product.reshape(plan.shape(count)).transpose(
                      _permutation(plan.axes, self._identity)))
        weights = np.zeros(count, dtype=np.float64)
        for index, row in enumerate(rows):
            branch = branches[index]
            weight = float(np.vdot(branch, branch).real)
            if weight >= DEAD_BRANCH_WEIGHT:
                weights[index] = weight
                np.divide(branch, np.sqrt(weight), out=amps[row])
        return weights

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    def canonical(self) -> np.ndarray:
        """The rows as a canonical ``(rows, dimension)`` matrix (a storage view)."""
        self._relayout(self._identity)
        return self._front[: self.count * self.dimension].reshape(self.count, self.dimension)

    def unit_populations(self, unit: int) -> np.ndarray:
        """``(rows, dims[unit])`` marginal level populations of one unit."""
        return unit_populations(self.canonical(), self.dims, unit)

    def vectors(self) -> np.ndarray:
        """A fresh ``(lanes, dimension)`` matrix: every lane's own vector."""
        return self.canonical()[self.lane_rows]


def inject_noise(
    state: RowTable,
    site: NoiseSite,
    fired: np.ndarray,
    strings: np.ndarray,
    ahead: tuple[int, ...] | None = None,
) -> None:
    """Inject each fired lane's Pauli string into a row of its own.

    ``fired`` are the lanes whose gate error fired at ``site``, in lane
    order, and ``strings`` the string each drew from its own stream at
    the position the scalar loop draws it (see :class:`SiteStrings` and
    :func:`strings_drawn_at_site`).  Slot by slot, in the scalar loop's
    order, the rows drawing each Pauli take it as one gather along that
    slot's unit axis: the first slot's Pauli rides on the fork
    (:meth:`RowTable.fork`, towards layout ``ahead``), each later slot's
    is one row-subset gather per Pauli.
    """
    width = len(site.slots)
    codes = [(strings >> (2 * (width - 1 - position))) & 3 for position in range(width)]
    rows = state.fork(fired, codes[0], site.paulis[0], ahead)
    for position in range(1, width):
        for code in (1, 2, 3):
            group = rows[codes[position] == code]
            if group.size:
                state.apply_to_rows(site.paulis[position][code - 1], group)


class SiteStrings:
    """A static block's Pauli strings, all drawn before the block evolves.

    A static program draws nothing between its up-front uniforms and its
    last uniform but one string per fired op with slots, in op order.  So
    every string can be drawn first, in lane-parallel rounds: round ``r``
    draws the ``r``-th such op of every lane that has one, with one
    ``integers`` call per distinct bound.  Each lane still draws its
    strings in op order, at the stream positions the scalar loop uses.

    Built from the block's :class:`~repro.noise.rng.GeneratorLanes`
    (standing past the up-front uniforms), its ``(ops, lanes)`` gate-error
    mask and the schedule's per-op :attr:`KernelSchedule.bounds`.  Called
    as ``strings(site, fired)`` it returns the strings of the lanes that
    fired at ``site``, in lane order.
    """

    __slots__ = ("_strings", "_starts")

    def __init__(self, rng_lanes, fired: np.ndarray, bounds: np.ndarray) -> None:
        ops, lanes = np.nonzero(fired & (bounds > 0)[:, None])
        self._starts = np.searchsorted(ops, np.arange(bounds.size + 1))
        self._strings = np.empty(ops.size, dtype=np.int64)
        if not ops.size:
            return
        # pairs come op-major; a stable sort by lane ranks each lane's ops
        by_lane = np.argsort(lanes, kind="stable")
        in_lane_order = lanes[by_lane]
        rounds = np.empty(ops.size, dtype=np.int64)
        rounds[by_lane] = np.arange(ops.size) - np.searchsorted(in_lane_order, in_lane_order)
        pair_bounds = bounds[ops]
        order = np.lexsort((pair_bounds, rounds))
        keys = rounds[order] * (int(bounds.max()) + 1) + pair_bounds[order]
        for group in np.split(order, np.flatnonzero(np.diff(keys)) + 1):
            self._strings[group] = rng_lanes.integers(
                lanes[group], 1, int(pair_bounds[group[0]]))

    def __call__(self, site: NoiseSite, fired: np.ndarray) -> np.ndarray:
        return self._strings[self._starts[site.op_index]: self._starts[site.op_index + 1]]


def strings_drawn_at_site(rng_lanes):
    """Strings drawn at each site, for a program whose draws depend on the state.

    A dynamic program's mid-circuit draws sit between its strings in every
    lane's stream, so each site draws its fired lanes' strings as it runs.
    """
    return lambda site, fired: rng_lanes.integers(fired, 1, site.bound)


# ----------------------------------------------------------------------
# the compiled program
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelSchedule:
    """One compiled circuit's flat kernel program.

    ``segments`` alternates :class:`FusedRun` stretches with bare op
    indices — the dynamic ops (mid-circuit measurement/reset, conditioned
    ops) the engine handles with per-lane branch keys; ``dynamic`` holds
    each one's precompiled :class:`DynamicOp`.  Static circuits compile to
    a single fused run.
    """

    dims: tuple[int, ...]
    segments: tuple[FusedRun | int, ...]
    num_ops: int
    dynamic: dict[int, DynamicOp]
    #: Per op, the exclusive bound of its Pauli-string draw (0: no slots).
    bounds: np.ndarray

    def execute_run(
        self, run: FusedRun, state: RowTable, gate_mask: np.ndarray, strings
    ) -> None:
        """Execute one fused run on ``state``, in place.

        Unitary steps touch every row once; at a noise site the fired
        lanes fork and take their sampled Paulis (:func:`inject_noise`),
        whose strings ``strings(site, fired)`` gives: a static block's
        :class:`SiteStrings` or a dynamic one's
        :func:`strings_drawn_at_site`.  The rows stay in the last op's
        layout: nothing is expanded or restored at the run's end.
        """
        for item, ahead in zip(run.items, run.ahead):
            if type(item) is UnitaryStep:
                state.apply(item, ahead)
            else:
                fired = np.flatnonzero(gate_mask[:, item.op_index])
                if fired.size:
                    inject_noise(state, item, fired, strings(item, fired), ahead)

    def execute_run_unitaries(self, run: FusedRun, state: RowTable) -> None:
        """Apply a run's unitaries to every row of ``state``, in place.

        The dynamic program's noise-free pass: its ideal table splits only
        at dynamic ops, so within a run every row takes every unitary.
        """
        for item, ahead in zip(run.items, run.ahead):
            if type(item) is UnitaryStep:
                state.apply(item, ahead)


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
    # embeddings, move tables and plans come from their process-wide memos
    # (embed_on_slots, monomial_moves, build_plan), so equal ones are
    # shared objects; one slot's three Paulis are built once per schedule
    def operator_for(matrix: np.ndarray, units: tuple[int, ...]) -> Operator:
        moves = monomial_moves(matrix, tuple(dims[unit] for unit in units))
        return Operator(matrix, build_plan(dims, units), moves)

    @lru_cache(maxsize=None)
    def paulis_for(unit: int, slot: int) -> tuple[Operator, ...]:
        return tuple(
            operator_for(*embed_on_slots(dims, qubit_gate(_PAULI_NAMES[code]), ((unit, slot),)))
            for code in (1, 2, 3)
        )

    def site_for(index: int, op) -> NoiseSite | None:
        if not op.slots:
            return None
        slots = tuple(op.slots)
        return NoiseSite(
            op_index=index,
            slots=slots,
            bound=4 ** len(slots),
            paulis=tuple(paulis_for(unit, slot) for unit, slot in slots),
        )

    def step_for(index: int) -> UnitaryStep | None:
        embedded = op_unitaries[index]
        if embedded is None:
            return None
        operator = operator_for(*embedded)
        return UnitaryStep(operator.matrix, operator.plan, operator.moves, op_index=index)

    segments: list[FusedRun | int] = []
    dynamic: dict[int, DynamicOp] = {}
    items: list[UnitaryStep | NoiseSite] = []

    def flush() -> None:
        if items:
            ahead = []
            layout = tuple(range(len(dims) + 1))
            for item in reversed(items):
                ahead.append(layout)
                if type(item) is UnitaryStep and item.moves is None:
                    layout = item.plan.axes
            segments.append(FusedRun(items=tuple(items), ahead=tuple(reversed(ahead))))
            items.clear()

    for index, op in enumerate(compiled.ops):
        if op.is_dynamic:
            flush()
            segments.append(index)
            measures = op.gate in ("measure_mid", "reset")
            dynamic[index] = DynamicOp(
                step=None if measures else step_for(index),
                site=site_for(index, op),
                flip=paulis_for(*op.slots[0])[0] if op.gate == "reset" else None,
            )
            continue
        step = step_for(index)
        if step is not None:
            items.append(step)
        site = site_for(index, op)
        if site is not None:
            items.append(site)
    flush()
    bounds = np.array([4 ** len(op.slots) if op.slots else 0 for op in compiled.ops],
                      dtype=np.int64)
    bounds.flags.writeable = False
    return KernelSchedule(
        dims=dims, segments=tuple(segments), num_ops=len(compiled.ops), dynamic=dynamic,
        bounds=bounds,
    )


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

    def count_block(self, stream) -> tuple[np.ndarray, np.ndarray]:
        """Per-lane gate and idle event counts over the block's served columns.

        ``stream`` is the block's :class:`~repro.noise.rng.StreamPrefix`.
        It serves exactly ``len(thresholds)`` columns; column ``j`` is
        compared with ``thresholds[j]`` and added into the lanes' counts.
        The stored prefix is shared with every other kernel over the same
        stream and is only read, so no ``(lanes, draws)`` matrix is built
        and a stored column is drawn again only after the memo evicts it.
        """
        columns = stream.columns(len(self.thresholds))
        fired = np.empty(stream.shots, dtype=bool)
        counts = []
        for thresholds in (self.thresholds[: self.num_ops], self.thresholds[self.num_ops:]):
            total = np.zeros(stream.shots, dtype=np.int64)
            for threshold in thresholds:
                np.less(next(columns), threshold, out=fired)
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
