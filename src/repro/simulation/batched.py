"""Batched dense state-vector simulator for mixed-radix registers.

A :class:`BatchedMixedRadixState` carries one amplitude vector *per shot* as
a ``(batch, dimension)`` matrix and evolves all of them in single NumPy
calls; lane-masked applies touch only a subset of the lanes.  The module
also owns what the trajectory engine's row tables (:mod:`repro.noise.kernel`)
share with it: the per-apply data-movement plan (:func:`build_plan`), the
wide-panel probe and the per-row marginal populations.

Bit-exactness contract: every lane evolves **bit-identically** to a
:class:`~repro.simulation.statevector.MixedRadixState` fed the same
operators.  Two implementation choices make that hold:

* :meth:`apply` uses the same transpose → reshape-copy → GEMM → restore
  pipeline as the scalar class.  NumPy's stacked ``matmul`` dispatches the
  same BLAS GEMM per ``(sub_dim, rest)`` slice as the scalar 2-D product,
  so each lane sees the identical kernel on identical memory layout (the
  golden-equivalence tests pin this).
* Inner products (Kraus branch weights, fidelities) are computed with the
  scalar path's own ``np.vdot`` per lane — BLAS matrix-vector products sum
  in a different order and differ in the last ulp, which would break the
  trajectory engine's bit-identical-to-reference guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Kraus branches below this squared-norm weight are treated as impossible
#: jumps and leave the lane unchanged (same constant as the scalar class).
DEAD_BRANCH_WEIGHT = 1e-18

#: Lazily probed: True when this build's BLAS produces bit-identical
#: columns whatever the GEMM panel width (see :func:`_wide_panels_bitstable`).
_WIDE_PANEL_OK: bool | None = None

#: ``(sub_dim, rest, lanes)`` GEMM shapes the wide-panel probe checks.  They
#: span every target size 2-/4-level units give a one- or two-unit op
#: (``sub_dim`` 2 to 16) and, per size, the narrowest wide ``rest`` (4) and
#: the widest a 1024-amplitude register reaches (``1024 // sub_dim``).
_PROBE_SHAPES = (
    (2, 4, 5), (2, 8, 3), (2, 512, 3),
    (4, 4, 7), (4, 16, 2), (4, 256, 3),
    (8, 4, 5), (8, 8, 3), (8, 128, 3),
    (16, 4, 5), (16, 64, 3),
)


def _wide_panels_bitstable() -> bool:
    """Probe whether widening a GEMM's column panel preserves each column's bits.

    The wide batched layout is only bit-identical to the scalar per-lane
    product if the BLAS kernel computes every column independently of the
    panel width.  That holds for the power-of-two panel shapes mixed-radix
    registers produce on the BLAS builds we test, but it is a kernel
    property, not a guarantee — so it is probed once per process on
    deterministic data over :data:`_PROBE_SHAPES`, and the wide path is
    disabled wholesale if any shape diverges.  Cached in
    :data:`_WIDE_PANEL_OK`.
    """
    global _WIDE_PANEL_OK
    if _WIDE_PANEL_OK is None:
        ok = True
        for sub, rest, batch in _PROBE_SHAPES:
            cells = sub * sub
            operator = (
                np.sin(np.arange(cells, dtype=np.float64) + 1.0)
                + 1j * np.cos(np.arange(cells) * 0.7)
            ).reshape(sub, sub)
            lanes = (
                np.sin(np.arange(batch * sub * rest) * 0.3 + 0.1)
                + 1j * np.cos(np.arange(batch * sub * rest) * 1.3)
            ).reshape(batch, sub, rest)
            wide = (operator @ np.ascontiguousarray(
                lanes.transpose(1, 0, 2)).reshape(sub, -1)
            ).reshape(sub, batch, rest).transpose(1, 0, 2)
            for lane in range(batch):
                scalar = operator @ np.ascontiguousarray(lanes[lane])
                if not (wide[lane] == scalar).all():
                    ok = False
        _WIDE_PANEL_OK = ok
    return _WIDE_PANEL_OK


@dataclass(frozen=True)
class ApplyPlan:
    """Data-movement recipe for applying an operator to one target unit tuple.

    Depends only on ``dims`` and ``units``, so one plan serves every batch
    size and lane subset: :func:`build_plan` memoises one per
    ``(dims, units)`` process-wide, and :class:`BatchedMixedRadixState`, the
    fused kernel programs (:mod:`repro.noise.kernel`) and the trajectory
    engine's row-table ops all share it.
    """

    units: tuple[int, ...]
    sub_dim: int
    rest: int
    #: True when the GEMM uses the wide-panel layout (batch axis folded
    #: into the columns).
    wide: bool
    #: Axis order over the canonical ``(batch,) + dims`` tensor the GEMM
    #: operand is gathered in (axis 0 of the canonical tensor = lanes).
    axes: tuple[int, ...]
    #: Tensor shape in ``axes`` order with 0 at the batch slot (filled
    #: with the live lane count at execution time).
    shape_template: tuple[int, ...]

    def shape(self, count: int) -> tuple[int, ...]:
        """The post-GEMM tensor shape for a ``count``-lane batch."""
        cut = self.axes.index(0)
        return self.shape_template[:cut] + (count,) + self.shape_template[cut + 1:]

    def operand(self, view: np.ndarray, count: int) -> np.ndarray:
        """``view`` (in ``axes`` order) reshaped, C-contiguous, for the GEMM."""
        if self.wide:
            return view.reshape(self.sub_dim, -1)
        return view.reshape(count, self.sub_dim, -1)


#: Distinct ``(dims, units)`` plans the memo behind :func:`build_plan` keeps.
PLAN_MEMO_SIZE = 1024


def build_plan(dims: tuple[int, ...], units: tuple[int, ...]) -> ApplyPlan:
    """The :class:`ApplyPlan` for ``units`` on a ``dims`` register.

    Memoised process-wide on the arguments normalised to int tuples, so
    equal requests (lists or tuples alike) return the same frozen plan.
    """
    return _build_plan(tuple(int(d) for d in dims), tuple(int(u) for u in units))


@lru_cache(maxsize=PLAN_MEMO_SIZE)
def _build_plan(dims: tuple[int, ...], units: tuple[int, ...]) -> ApplyPlan:
    """Compute the :class:`ApplyPlan` for ``units`` on a ``dims`` register.

    Two layouts, both bit-identical per lane to the scalar 2-D product
    ``operator @ matrix`` with ``matrix`` of shape ``(sub_dim, rest)``:

    * wide panel: the batch moves into the GEMM's *columns* — one
      ``(sub_dim, count * rest)`` product instead of ``count`` BLAS
      dispatches.  A lane's bits survive the widening only while every
      lane's column span stays aligned to the BLAS kernel's register
      blocking, so this layout is used only where that holds:
      power-of-two ``sub_dim`` *and* ``rest`` (every mixed-radix
      register of 2-/4-level units qualifies) with ``rest > 2``
      (NumPy special-cases skinnier products), and only after
      :func:`_wide_panels_bitstable` has confirmed once per process
      that this BLAS build keeps columns panel-width independent.
      The batch axis sits between the target and spectator axes so
      the gather/scatter copies walk the source near-contiguously.
      The golden-equivalence tests pin the guarantee continuously.
    * otherwise: the batch stays on axis 0 and the stacked ``matmul``
      issues the scalar path's exact per-lane call — trivially
      bit-identical at per-lane dispatch cost.
    """
    dimension = int(np.prod(dims))
    sub_dim = int(np.prod([dims[u] for u in units]))
    rest = dimension // sub_dim
    aligned = (sub_dim & (sub_dim - 1)) == 0 and (rest & (rest - 1)) == 0
    wide = rest > 2 and aligned and _wide_panels_bitstable()
    targets = [unit + 1 for unit in units]
    others = [axis + 1 for axis in range(len(dims)) if axis not in units]
    axes = targets + [0] + others if wide else [0] + targets + others
    shape_template = tuple(0 if axis == 0 else dims[axis - 1] for axis in axes)
    return ApplyPlan(
        units=units, sub_dim=sub_dim, rest=rest, wide=wide,
        axes=tuple(axes), shape_template=shape_template,
    )


def unit_populations(amps: np.ndarray, dims: tuple[int, ...], unit: int) -> np.ndarray:
    """``(rows, dims[unit])`` marginal level populations of one unit, per row.

    ``amps`` is a canonical ``(rows, dimension)`` matrix; the reduction is
    the one the batched state and the trajectory row tables share.
    """
    tensor = np.abs(amps.reshape((amps.shape[0],) + dims)) ** 2
    axes = tuple(axis + 1 for axis in range(len(dims)) if axis != unit)
    return tensor.sum(axis=axes)


class BatchedMixedRadixState:
    """A batch of state vectors over one register of qudits.

    Parameters
    ----------
    dims:
        Dimension of each physical unit, in register order.
    batch:
        Number of independent state vectors (shots), all initialised to
        the all-zeros basis state.
    """

    def __init__(self, dims: tuple[int, ...] | list[int], batch: int) -> None:
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise ValueError("a register needs at least one unit")
        if any(d < 2 for d in dims):
            raise ValueError("every unit must have dimension at least 2")
        if batch < 0:
            raise ValueError("batch must be non-negative")
        self.dims = dims
        self.num_units = len(dims)
        self.dimension = int(np.prod(dims))
        self.batch = int(batch)
        self._amps = np.zeros((self.batch, self.dimension), dtype=complex)
        self._amps[:, 0] = 1.0

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def vectors(self) -> np.ndarray:
        """A ``(batch, dimension)`` copy of every lane's amplitude vector."""
        return self._amps.copy()

    def set_vectors(self, matrix: np.ndarray, atol: float = 1e-3) -> None:
        """Replace every lane's amplitudes (renormalising small drift).

        Lanes whose norm deviates from 1 by more than ``atol`` raise — a
        wrong-sized or grossly unnormalised matrix is a caller bug — but
        accumulated float drift (long Kraus chains) is silently
        renormalised rather than rejected.
        """
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (self.batch, self.dimension):
            raise ValueError(
                f"amplitude matrix must have shape ({self.batch}, {self.dimension})"
            )
        norms = np.linalg.norm(matrix, axis=1)
        if not np.allclose(norms, 1.0, atol=atol):
            raise ValueError("every lane must carry a normalised state vector")
        self._amps = matrix / norms[:, None]

    # ------------------------------------------------------------------
    # evolution
    # ------------------------------------------------------------------
    def _plan(self, operator: np.ndarray, units: tuple[int, ...] | list[int]) -> ApplyPlan:
        """Validate ``operator`` against ``units`` and build its plan."""
        units = tuple(int(u) for u in units)
        if len(set(units)) != len(units):
            raise ValueError("target units must be distinct")
        for unit in units:
            if not 0 <= unit < self.num_units:
                raise ValueError(f"unit index {unit} out of range")
        plan = build_plan(self.dims, units)
        if operator.shape != (plan.sub_dim, plan.sub_dim):
            raise ValueError(
                f"operator of shape {operator.shape} does not match target dimensions {plan.sub_dim}"
            )
        return plan

    def _transform(self, amps: np.ndarray, operator: np.ndarray, plan: ApplyPlan) -> np.ndarray:
        """The scalar class's apply pipeline, batched over all lanes.

        Gathers ``amps`` into ``plan``'s layout, runs the one GEMM the
        plan chooses (see :func:`build_plan`) and scatters the product
        back to the canonical ``(count, dimension)`` layout.
        """
        count = amps.shape[0]
        permuted = amps.reshape((count,) + self.dims).transpose(plan.axes)
        product = (operator @ plan.operand(permuted, count)).reshape(plan.shape(count))
        return product.transpose(np.argsort(plan.axes)).reshape(count, self.dimension)

    def apply(self, unitary: np.ndarray, units: tuple[int, ...] | list[int],
              lanes: np.ndarray | None = None) -> None:
        """Apply ``unitary`` to the listed units on every lane (or a subset).

        ``lanes`` is an optional integer index array restricting the
        operation — the trajectory engine uses it to inject a sampled Pauli
        only on the shots whose error fired.
        """
        plan = self._plan(unitary, units)
        if lanes is None:
            self._amps = self._transform(self._amps, unitary, plan)
        elif lanes.size:
            self._amps[lanes] = self._transform(self._amps[lanes], unitary, plan)

    def apply_kraus(self, operator: np.ndarray, units: tuple[int, ...] | list[int],
                    lanes: np.ndarray | None = None) -> np.ndarray:
        """Apply a (possibly non-unitary) Kraus operator and renormalise.

        Returns each affected lane's pre-normalisation squared norm — the
        probability weight of the branch.  Lanes with (near-)zero weight
        are left unchanged and report 0.0, so an impossible jump is a
        no-op, exactly like the scalar class.
        """
        plan = self._plan(operator, units)
        selected = self._amps if lanes is None else self._amps[lanes]
        if selected.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        transformed = self._transform(selected, operator, plan)
        # per-lane np.vdot: the scalar path's own reduction, for bit-equality
        weights = np.array(
            [float(np.vdot(row, row).real) for row in transformed], dtype=np.float64
        )
        dead = weights < DEAD_BRANCH_WEIGHT
        if dead.any():
            transformed[dead] = selected[dead]
        live = ~dead
        if live.any():
            transformed[live] = transformed[live] / np.sqrt(weights[live])[:, None]
        if lanes is None:
            self._amps = transformed
        else:
            self._amps[lanes] = transformed
        weights[dead] = 0.0
        return weights

    # ------------------------------------------------------------------
    # measurement-style queries (non-destructive)
    # ------------------------------------------------------------------
    def probabilities(self) -> np.ndarray:
        """``(batch, dimension)`` probability of each joint basis state."""
        return np.abs(self._amps) ** 2

    def unit_populations(self, unit: int) -> np.ndarray:
        """``(batch, dims[unit])`` marginal level populations of one unit."""
        if not 0 <= unit < self.num_units:
            raise ValueError(f"unit index {unit} out of range")
        return unit_populations(self._amps, self.dims, unit)

    def fidelities_with(self, vector: np.ndarray) -> np.ndarray:
        """Per-lane squared overlap ``|<vector | lane>|**2``.

        Computed with one ``np.vdot`` per lane so every value is bit-equal
        to the scalar path's fidelity.
        """
        vector = np.asarray(vector)
        if vector.shape != (self.dimension,):
            raise ValueError(f"vector must have shape ({self.dimension},)")
        return np.array(
            [float(abs(np.vdot(vector, row)) ** 2) for row in self._amps],
            dtype=np.float64,
        )

    def sample_outcomes(self, draws: np.ndarray) -> np.ndarray:
        """Sample one joint computational-basis outcome per lane.

        ``draws`` supplies one uniform [0, 1) variate per lane; the outcome
        is the basis index picked by inverse-CDF sampling over the lane's
        probability vector (mixed-radix units decode via
        :meth:`~repro.simulation.statevector.MixedRadixState.basis_labels`).
        """
        draws = np.asarray(draws, dtype=np.float64)
        if draws.shape != (self.batch,):
            raise ValueError(f"draws must have shape ({self.batch},)")
        cumulative = np.cumsum(self.probabilities(), axis=1)
        # guard against float undershoot: the final CDF entry covers 1.0
        cumulative[:, -1] = np.maximum(cumulative[:, -1], 1.0)
        indices = (cumulative <= draws[:, None]).sum(axis=1)
        return np.minimum(indices.astype(np.int64), self.dimension - 1)
