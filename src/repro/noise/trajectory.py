"""Monte Carlo quantum-trajectory engine over the mixed-radix simulator.

Each trajectory (shot) replays a compiled circuit's scheduled physical ops
and stochastically injects the noise a :class:`~repro.noise.model.NoiseModel`
prescribes:

* after each physical op, with the op's calibrated error probability, a
  uniformly random non-identity Pauli string on the encoded qubits the op
  touched (stochastic depolarizing), and
* amplitude-damping decay charged against every logical qubit's residency —
  qubit-mode time at the qubit T1, ququart-mode time at the ququart T1 —
  following the paper's worst-case assumption that every qubit is live for
  the whole makespan.  Jumps are applied at the end of the op stream (the
  timing of a jump does not change the event statistics the EPS model
  predicts, and it keeps the channel composition identical to the
  density-matrix reference path).

Determinism: shot ``i`` of seed ``s`` always draws from the RNG stream
``default_rng((s, i))``, so results are bit-identical however the shots are
chunked across workers.

The event-only path (``track_state=False``, all the EPS estimate needs) is
chunk-batched: every op's error probability
(:meth:`~repro.noise.model.NoiseModel.op_error_probabilities`) is computed
into one flat threshold array per engine, and a whole block of shots draws its
uniforms as vectorised columns through :mod:`repro.noise.rng` — an order
of magnitude faster than one Python ``Generator`` per shot, yet
bit-identical to it.  Every engine of one seed reads the same streams, so
the columns come from :func:`~repro.noise.rng.stream_prefix`, a process
memo that draws each stored column of a chunk once for all the cells
that read it.  The scalar loop is the ``_reference`` implementation
(:meth:`run_reference`), and the golden-equivalence tests compare the
two draw for draw.

Shots where *no* event fired estimate the analytic EPS; with
``track_state=True`` the engine additionally evolves the state vector and
reports outcome-level success (which the analytic model lower-bounds).
State tracking replays every strategy, including the Full-Ququart baseline
whose encode/decode ops are modelled as slot transports (see
:func:`repro.simulation.verify.physical_op_unitary`).

The state-tracking path is chunk-batched too.  A block of shots is one
:class:`~repro.noise.kernel.RowTable` from its first op to its last.  Its
up-front uniforms come from the same shared stream prefix, and its later
draws from fresh :class:`repro.noise.rng.GeneratorLanes` jumped past them
(:meth:`~repro.noise.rng.StreamPrefix.lanes_at`), which replicate
``Generator.integers``' 32-bit bounded path bit for bit.  Each lane's
stream order is the scalar loop's: uniforms, then one Pauli string per
fired op in op order, then the final outcome uniform.  A static block
draws all its strings right after the jump, in lane-parallel rounds
(:class:`~repro.noise.kernel.SiteStrings`); a dynamic block draws each
site's strings as the site runs, because its mid-circuit measurement
draws depend on the state and sit between them.
The table holds the block's distinct trajectories rather than its shots:
a fresh block is one row every lane shares, and lanes split off a row
only where they need a different op from the rest of it — a fired gate
error, a damping jump (or survival), a mid-circuit outcome, a condition.
The ops run as the fused kernel program of :mod:`repro.noise.kernel`;
idle decay, dynamic ops and fidelities act on rows too, each distinct row
once.  Each row is bit-identical to the vector its lanes would hold on
their own, so sharing is invisible in the results: the batched path is
asserted bit-identical to the scalar ``run_reference``, chunk for chunk.

Monomial operators — fired Paulis, ``reset`` flips, CX, SWAP,
``enc``/``dec``, ``swap4`` — are applied as exact gathers with phases
(their memoised move tables), dense ones by GEMM, in the kernel and in
the scalar oracle alike (:meth:`TrajectoryEngine._apply_embedded`), so
the two agree byte for byte; the ideal vector is the one GEMM-only
replay, equal to them under ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.result import CompiledCircuit
from repro.noise.kernel import (
    _PAULI_NAMES,
    KernelSchedule,
    RowTable,
    SiteStrings,
    build_event_kernel,
    compile_schedule,
    inject_noise,
    strings_drawn_at_site,
)
from repro.noise.model import NoiseModel, NoiseSpec, resolve_model
from repro.noise.result import NoisyResult
from repro.noise.rng import GeneratorLanes, check_shot_span, stream_prefix
from repro.noise.rng import uniform_streams  # noqa: F401  (perfbench traces it here)
from repro.pulses.unitaries import qubit_gate
from repro.simulation.batched import ApplyPlan, build_plan
from repro.simulation.statevector import MixedRadixState
from repro.simulation.verify import (
    VerificationError,
    embed_on_slots,
    monomial_moves,
    physical_op_unitary,
    register_dims,
)

#: Amplitude-damping jump K1 ∝ |0><1| on one encoded qubit.
_DAMPING_JUMP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

#: Measurement projectors |0><0| and |1><1| on one encoded qubit.
_PROJECTORS = (
    np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
)

#: Shots per vectorised block in the event-only path.  Bounds the RNG
#: lanes' per-block buffers while keeping the batch large enough that
#: per-block overhead is negligible.
EVENT_BLOCK_SHOTS = 8192

#: Amplitude budget of one state-tracking block: the block size is chosen
#: so ``block x register_dimension`` complex amplitudes stay near this cap
#: (4 MiB of complex128 — the sweet spot measured across the benchmark
#: registers: big enough to amortise per-block overhead, small enough that
#: the per-op gather/GEMM/scatter passes stay cache-friendly).  Purely a
#: scheduling knob — any block split is bit-invisible.
TRACKED_BLOCK_AMPLITUDES = 1 << 18

#: Largest shot count :meth:`TrajectoryEngine.final_vectors` will
#: materialise as one list (O(shots x dimension) complex128 memory).
#: Larger requests must stream :meth:`TrajectoryEngine.iter_final_vectors`.
FINAL_VECTORS_MAX_SHOTS = 4096


def _damping_survival(gamma: float) -> np.ndarray:
    """The no-jump damping operator K0 = diag(1, sqrt(1-gamma))."""
    return np.array([[1.0, 0.0], [0.0, np.sqrt(max(0.0, 1.0 - gamma))]], dtype=complex)


@dataclass(frozen=True)
class _ShotOutcome:
    gate_events: int
    idle_events: int
    vector: np.ndarray | None
    #: Pre-computed ideal-vs-noisy fidelity (dynamic shots only, where the
    #: per-shot ideal state follows the shot's own branch decisions and no
    #: single circuit-wide ideal vector exists).
    fidelity: float | None = None


class TrajectoryEngine:
    """Reusable sampler for one (compiled circuit, noise model) pair.

    Parameters
    ----------
    compiled:
        The scheduled physical program to simulate.
    model:
        A :class:`NoiseModel` (or a :class:`NoiseSpec`, built against the
        compiled circuit's device).
    track_state:
        ``False`` samples error events only — enough for the EPS estimate
        and available for *any* compiled circuit, on the fast chunk-batched
        path.  ``True`` additionally replays the state vector with the
        sampled noise injected, enabling the outcome-level metrics; it
        requires a replayable op stream (compile with
        ``merge_single_qubit_gates=False``; the FQ baseline always
        schedules unmerged).
    """

    def __init__(
        self,
        compiled: CompiledCircuit,
        model: NoiseModel | NoiseSpec,
        track_state: bool = False,
    ) -> None:
        self.compiled = compiled
        self.model = resolve_model(model, compiled.device)
        self.track_state = bool(track_state)
        if self.model.idle_policy == "kraus" and not self.track_state:
            # validate the policy/track_state combination eagerly: the kraus
            # unraveling needs the state (jump probability scales with the
            # excited population), so a misconfigured engine must fail here,
            # at construction — not shots into a run
            raise VerificationError(
                "the kraus idle policy is state-dependent; "
                "construct the engine with track_state=True"
            )
        self.dims = register_dims(compiled)
        self.dimension = int(np.prod(self.dims))
        self.is_dynamic = compiled.is_dynamic
        self.op_probs = self.model.op_error_probabilities(compiled)
        self.idle_qubits, self.idle_gammas = self.model.idle_decay_channels(compiled)
        self._draws = len(compiled.ops) + len(self.idle_qubits)
        self._ideal_vector: np.ndarray | None = None
        self._op_unitaries: list[tuple[np.ndarray, tuple[int, ...]] | None] = []
        self._event_kernel = build_event_kernel(self.op_probs, self.idle_gammas)
        self._schedule: KernelSchedule | None = None
        if self.track_state:
            self._prepare_replay()
            self._schedule = compile_schedule(self.compiled, self.dims, self._op_unitaries)

    # ------------------------------------------------------------------
    # replay preparation (state-tracking mode)
    # ------------------------------------------------------------------
    def _prepare_replay(self) -> None:
        lowered = self.compiled.lowered_circuit
        if not isinstance(lowered, QuantumCircuit):
            raise VerificationError(
                "state tracking needs the lowered source circuit; "
                "this compiled circuit does not carry one"
            )
        # deterministic per (compiled, dims), so every engine over this
        # artifact (one per noise model) shares one embedded-unitary list
        self._op_unitaries = self.compiled.cached_schedule(
            ("op-unitaries", self.dims),
            lambda: [
                physical_op_unitary(op, self.dims, lowered) for op in self.compiled.ops
            ],
        )
        if self.is_dynamic:
            # Dynamic programs branch at runtime: there is no single ideal
            # final vector.  Each shot instead evolves a parallel noise-free
            # state through its own branch decisions (see _run_shot_dynamic).
            self._ideal_vector = None
            return
        state = MixedRadixState(self.dims)
        for embedded in self._op_unitaries:
            if embedded is not None:
                state.apply(*embedded)
        self._ideal_vector = state.vector

    def _embedded(
        self, matrix: np.ndarray, unit: int, slot: int
    ) -> tuple[np.ndarray, tuple[int, ...]]:
        """``matrix`` embedded on the encoded qubit at ``(unit, slot)``."""
        return embed_on_slots(self.dims, matrix, ((unit, slot),))

    def _embedded_planned(
        self, matrix: np.ndarray, unit: int, slot: int
    ) -> tuple[np.ndarray, ApplyPlan]:
        """:meth:`_embedded` with the unit's :class:`ApplyPlan` for row tables."""
        embedded, units = self._embedded(matrix, unit, slot)
        return embedded, build_plan(self.dims, units)

    def _apply_embedded(
        self, state: MixedRadixState, embedded: tuple[np.ndarray, tuple[int, ...]]
    ) -> None:
        """Apply one embedded operator to a scalar state, as the kernel would.

        A monomial operator goes through its memoised move table — the
        gather the fused kernel applies to rows, so the oracle and the
        kernel agree byte for byte — and a dense one through the GEMM.
        """
        matrix, units = embedded
        moves = monomial_moves(matrix, tuple(self.dims[unit] for unit in units))
        if moves is None:
            state.apply(matrix, units)
        else:
            state.apply_moves(moves, units)

    @staticmethod
    def _condition_met(creg: int, condition: tuple[tuple[int, ...], int]) -> bool:
        """Evaluate a classical control against one shot's register value."""
        bits, value = condition
        got = 0
        for position, bit in enumerate(bits):
            got |= ((creg >> bit) & 1) << position
        return got == value

    # ------------------------------------------------------------------
    # state helpers (shared by the scalar and batched paths)
    # ------------------------------------------------------------------
    def _excited_levels(self, unit: int, slot: int) -> tuple[int, ...]:
        """Levels of ``unit`` where the encoded qubit at ``slot`` is |1>."""
        if self.dims[unit] == 2:
            return (1,)
        return (2, 3) if slot == 0 else (1, 3)

    def _excited_population(self, state: MixedRadixState, unit: int, slot: int) -> float:
        """Population of the encoded qubit's |1> level at (unit, slot)."""
        populations = state.unit_populations(unit)
        levels = self._excited_levels(unit, slot)
        total = populations[levels[0]]
        for level in levels[1:]:
            total = total + populations[level]
        return float(total)

    # ------------------------------------------------------------------
    # scalar sampling (the _reference implementation, and state tracking)
    # ------------------------------------------------------------------
    def _inject_pauli(
        self, state: MixedRadixState, rng: np.random.Generator, slots
    ) -> None:
        """Draw a non-identity Pauli string over ``slots`` and apply it (scalar path)."""
        string = int(rng.integers(1, 4 ** len(slots)))
        for position, (unit, slot) in enumerate(slots):
            code = (string >> (2 * (len(slots) - 1 - position))) & 3
            if code:
                self._apply_embedded(
                    state, self._embedded(qubit_gate(_PAULI_NAMES[code]), unit, slot))

    def _shot_idle_decay(self, state: MixedRadixState, draws: np.ndarray) -> int:
        """Apply one shot's idle decay per logical qubit at its final position.

        ``draws`` holds the shot's idle-decay uniforms; returns the jump
        count.  A jump on a qubit with no excited amplitude cannot fire
        physically and leaves the state unchanged (the shot still counts
        as failed under the worst-case policy).
        """
        events = 0
        for position, qubit in enumerate(self.idle_qubits):
            gamma = float(self.idle_gammas[position])
            if gamma <= 0.0:
                continue
            unit, slot = self.compiled.final_placement[qubit]
            draw = float(draws[position])
            if self.model.idle_policy == "worst_case":
                jumped = draw < gamma
            else:  # kraus: jump probability scales with the excited population
                jumped = draw < gamma * self._excited_population(state, unit, slot)
            if jumped:
                events += 1
                state.apply_kraus(*self._embedded(_DAMPING_JUMP, unit, slot))
            elif self.model.idle_policy == "kraus":
                state.apply_kraus(*self._embedded(_damping_survival(gamma), unit, slot))
        return events

    def _run_shot(self, rng: np.random.Generator) -> _ShotOutcome:
        draws = rng.random(self._draws) if self._draws else np.empty(0)
        num_ops = len(self.compiled.ops)
        gate_mask = draws[:num_ops] < self.op_probs
        gate_events = int(gate_mask.sum())
        if not self.track_state:
            # the constructor guarantees the worst_case policy here
            idle_events = int((draws[num_ops:] < self.idle_gammas).sum())
            return _ShotOutcome(gate_events, idle_events, None)
        if self.is_dynamic:
            return self._run_shot_dynamic(rng, draws, gate_mask)

        state = MixedRadixState(self.dims)
        for index, op in enumerate(self.compiled.ops):
            embedded = self._op_unitaries[index]
            if embedded is not None:
                self._apply_embedded(state, embedded)
            if gate_mask[index] and op.slots:
                self._inject_pauli(state, rng, op.slots)
        idle_events = self._shot_idle_decay(state, draws[num_ops:])
        return _ShotOutcome(gate_events, idle_events, state.vector)

    def _run_shot_dynamic(
        self, rng: np.random.Generator, draws: np.ndarray, gate_mask: np.ndarray
    ) -> _ShotOutcome:
        """One state-tracked shot of a dynamic program (scalar reference).

        A parallel noise-free ``ideal`` state evolves through the *same*
        instruction stream, following the noisy run's branch decisions:
        mid-circuit measurement outcomes are sampled from the noisy state
        and the matching projector is applied to both states.  When the
        ideal state carries zero weight on the sampled branch the shot's
        ideal reference is lost (``alive`` drops) and its fidelity is 0.

        Stream consumption: one block of ``self._draws`` uniforms up front
        (already drawn by the caller), one extra uniform per *executed*
        mid-circuit measurement/reset at its op position, one bounded-integer
        Pauli draw per fired-and-executed op — condition-false ops consume
        nothing, which is what keeps the batched path lane-exact.
        """
        num_ops = len(self.compiled.ops)
        gate_events = int(gate_mask.sum())
        state = MixedRadixState(self.dims)
        ideal = MixedRadixState(self.dims)
        alive = True
        creg = 0
        for index, op in enumerate(self.compiled.ops):
            executed = op.condition is None or self._condition_met(creg, op.condition)
            if executed and op.gate in ("measure_mid", "reset"):
                unit, slot = op.slots[0]
                draw = float(rng.random())
                outcome = int(draw < self._excited_population(state, unit, slot))
                projector, units = self._embedded(_PROJECTORS[outcome], unit, slot)
                state.apply_kraus(projector, units)
                if alive:
                    alive = ideal.apply_kraus(projector, units) > 0.0
                if op.gate == "measure_mid":
                    bit = int(op.cbits[0])
                    creg = (creg & ~(1 << bit)) | (outcome << bit)
                elif outcome:  # reset: flip the sampled |1> back to |0>
                    flip = self._embedded(qubit_gate("x"), unit, slot)
                    self._apply_embedded(state, flip)
                    if alive:
                        self._apply_embedded(ideal, flip)
            elif executed:
                embedded = self._op_unitaries[index]
                if embedded is not None:
                    self._apply_embedded(state, embedded)
                    if alive:
                        self._apply_embedded(ideal, embedded)
            if gate_mask[index] and executed and op.slots:
                self._inject_pauli(state, rng, op.slots)
        idle_events = self._shot_idle_decay(state, draws[num_ops:])
        if alive:
            fidelity = float(abs(np.vdot(ideal.vector, state.vector)) ** 2)
        else:
            fidelity = 0.0
        return _ShotOutcome(gate_events, idle_events, state.vector, fidelity=fidelity)

    def run_reference(self, shots: int, seed: int, base_shot: int = 0) -> NoisyResult:
        """Sample trajectories with the original one-``Generator``-per-shot loop.

        This is the retained ``_reference`` implementation: slower than
        :meth:`run` but trivially correct against the documented RNG-stream
        contract.  The golden-equivalence tests assert ``run`` returns
        bit-identical results; production callers should use :meth:`run`.
        """
        check_shot_span(base_shot, shots)
        no_error = 0
        gate_events = 0
        idle_events = 0
        outcome_successes = 0
        fidelity_sum = 0.0
        for offset in range(shots):
            shot_index = base_shot + offset
            rng = np.random.default_rng((seed, shot_index))
            outcome = self._run_shot(rng)
            gate_events += outcome.gate_events
            idle_events += outcome.idle_events
            if outcome.gate_events == 0 and outcome.idle_events == 0:
                no_error += 1
            if outcome.vector is not None:
                if outcome.fidelity is not None:
                    fidelity = outcome.fidelity
                else:
                    fidelity = float(abs(np.vdot(self._ideal_vector, outcome.vector)) ** 2)
                fidelity_sum += fidelity
                if rng.random() < fidelity:
                    outcome_successes += 1
        return NoisyResult(
            shots=shots,
            seed=seed,
            no_error_shots=no_error,
            gate_events=gate_events,
            idle_events=idle_events,
            tracked=self.track_state,
            outcome_successes=outcome_successes,
            outcome_fidelity_sum=fidelity_sum,
        )

    # ------------------------------------------------------------------
    # chunk-batched sampling (the production event-only path)
    # ------------------------------------------------------------------
    def _run_event_batch(self, shots: int, seed: int, base_shot: int) -> NoisyResult:
        """Vectorised event-only sampling over blocks of shots.

        Every shot's private ``default_rng((seed, shot))`` stream comes
        from the block's shared :class:`~repro.noise.rng.StreamPrefix`,
        whose columns the pre-built
        :class:`~repro.noise.kernel.EventKernel` compares one at a time
        against their thresholds.  The thresholds and the draws are the
        same floats the scalar loop uses, compared with the same IEEE
        predicates, so the event counts are bit-identical at any block or
        chunk split, and whichever cells ran before in the process.
        """
        no_error = 0
        gate_events = 0
        idle_events = 0
        for start in range(0, shots, EVENT_BLOCK_SHOTS):
            count = min(EVENT_BLOCK_SHOTS, shots - start)
            stream = stream_prefix(seed, base_shot + start, count)
            per_shot_gate, per_shot_idle = self._event_kernel.count_block(stream)
            no_error += int(((per_shot_gate == 0) & (per_shot_idle == 0)).sum())
            gate_events += int(per_shot_gate.sum())
            idle_events += int(per_shot_idle.sum())
        return NoisyResult(
            shots=shots,
            seed=seed,
            no_error_shots=no_error,
            gate_events=gate_events,
            idle_events=idle_events,
        )

    # ------------------------------------------------------------------
    # chunk-batched sampling (the production state-tracking path)
    # ------------------------------------------------------------------
    def _tracked_block_shots(self) -> int:
        """Shots per state-tracking block, sized by the amplitude budget."""
        return max(1, min(EVENT_BLOCK_SHOTS, TRACKED_BLOCK_AMPLITUDES // self.dimension))

    def _excited_populations(self, state: RowTable, unit: int, slot: int) -> np.ndarray:
        """Per-row |1> population of the encoded qubit at ``(unit, slot)``."""
        populations = state.unit_populations(unit)
        levels = self._excited_levels(unit, slot)
        total = populations[:, levels[0]]
        for level in levels[1:]:
            total = total + populations[:, level]
        return total

    def _row_capacity(self, gate_mask: np.ndarray, idle_draws: np.ndarray) -> int:
        """Rows a static block reaches, from the draws made up front.

        The trunk plus one row per lane with a fired gate, and under the
        ``worst_case`` policy one more per jump pattern beyond the first
        among the lanes still on the trunk: each idle qubit's jump splits
        their rows by jumped-or-not, so they end on one row per distinct
        pattern.  ``kraus`` decay and dynamic ops split on the state, so
        their tables regrow when they need to.
        """
        forked = gate_mask.any(axis=1)
        capacity = 1 + int(forked.sum())
        if self.model.idle_policy == "worst_case" and not forked.all():
            jumps = np.packbits(idle_draws[~forked] < self.idle_gammas, axis=1)
            words = max(1, -(-jumps.shape[1] // 8))
            keys = np.zeros((jumps.shape[0], 8 * words), dtype=np.uint8)
            keys[:, : jumps.shape[1]] = jumps
            # one scalar key per lane: a uint64 up to 64 idle qubits, raw
            # bytes past that; a 1-D unique sorts them without a row compare
            scalar = np.uint64 if words == 1 else np.dtype((np.void, 8 * words))
            capacity += np.unique(keys.view(scalar)[:, 0]).size - 1
        return capacity

    def _apply_idle_decay(self, state: RowTable, draws: np.ndarray) -> np.ndarray:
        """Apply idle decay per logical qubit at its final position, per row.

        ``draws`` holds each lane's idle-decay uniforms, one column per
        idle qubit.  Lanes split by jump (``worst_case``: jumped or not;
        ``kraus``: jump or survive), so each damping operator touches each
        distinct row once.  Returns the per-lane count of damping jumps.
        """
        idle_counts = np.zeros(state.lane_rows.size, dtype=np.int64)
        every_lane = np.arange(state.lane_rows.size)
        for position, qubit in enumerate(self.idle_qubits):
            gamma = float(self.idle_gammas[position])
            if gamma <= 0.0:
                continue
            unit, slot = self.compiled.final_placement[qubit]
            column = draws[:, position]
            jump = self._embedded_planned(_DAMPING_JUMP, unit, slot)
            if self.model.idle_policy == "worst_case":
                jumped = np.flatnonzero(column < gamma)
                idle_counts[jumped] += 1
                if jumped.size:
                    state.apply_kraus(*jump, np.unique(state.split(jumped)))
                continue
            # kraus: jump probability scales with the excited population
            populations = self._excited_populations(state, unit, slot)
            fired = column < gamma * populations[state.lane_rows]
            idle_counts += fired
            rows = state.split(every_lane, fired)
            if fired.any():
                state.apply_kraus(*jump, np.unique(rows[fired]))
            if not fired.all():
                survival = self._embedded_planned(_damping_survival(gamma), unit, slot)
                state.apply_kraus(*survival, np.unique(rows[~fired]))
        return idle_counts

    def _apply_dynamic_op(
        self,
        index: int,
        state: RowTable,
        ideal: RowTable,
        alive: np.ndarray,
        creg: np.ndarray,
        lanes: GeneratorLanes,
        gate_mask: np.ndarray,
    ) -> None:
        """Apply one op of a dynamic program to both row tables, per-lane exact.

        Mutates ``state``/``ideal``/``alive``/``creg`` in place.  The
        executing lanes split both tables by their branch key — the sampled
        outcome of a mid-circuit measurement/``reset``, or simply "executed"
        for a conditioned op.  The ideal table splits on the same keys (a
        lost lane's ideal row is never read again, so it may follow along).
        """
        op = self.compiled.ops[index]
        parts = self._schedule.dynamic[index]
        count = creg.shape[0]
        if op.condition is None:
            executed = np.ones(count, dtype=bool)
        else:
            bits, value = op.condition
            got = np.zeros(count, dtype=np.int64)
            for position, bit in enumerate(bits):
                got |= ((creg >> np.int64(bit)) & 1) << np.int64(position)
            executed = got == value
        exec_idx = np.flatnonzero(executed)
        if op.gate in ("measure_mid", "reset"):
            if exec_idx.size:
                unit, slot = op.slots[0]
                draw = lanes.random(exec_idx)
                excited = self._excited_populations(state, unit, slot)
                outcomes = draw < excited[state.lane_rows[exec_idx]]
                rows = state.split(exec_idx, outcomes)
                ideal_rows = ideal.split(exec_idx, outcomes)
                for outcome in (False, True):
                    chosen = outcomes == outcome
                    if not chosen.any():
                        continue
                    projector = self._embedded_planned(_PROJECTORS[outcome], unit, slot)
                    state.apply_kraus(*projector, np.unique(rows[chosen]))
                    targets, inverse = np.unique(ideal_rows[chosen], return_inverse=True)
                    weights = ideal.apply_kraus(*projector, targets)
                    alive[exec_idx[chosen][weights[inverse] == 0.0]] = False
                if op.gate == "measure_mid":
                    bit = np.int64(op.cbits[0])
                    creg[exec_idx] = (creg[exec_idx] & ~(np.int64(1) << bit)) | (
                        outcomes.astype(np.int64) << bit
                    )
                elif outcomes.any():  # reset: flip the sampled |1> rows back to |0>
                    state.apply_to_rows(parts.flip, np.unique(rows[outcomes]))
                    ideal.apply_to_rows(parts.flip, np.unique(ideal_rows[outcomes]))
        elif parts.step is not None and exec_idx.size:
            state.apply_to_rows(parts.step, np.unique(state.split(exec_idx)))
            ideal.apply_to_rows(parts.step, np.unique(ideal.split(exec_idx)))
        if parts.site is not None:
            fired = np.flatnonzero(gate_mask[:, index] & executed)
            if fired.size:
                inject_noise(state, parts.site, fired, lanes.integers(fired, 1, parts.site.bound))

    def _fidelities(
        self, state: RowTable, ideal: RowTable | None, alive: np.ndarray | None
    ) -> np.ndarray:
        """Per-lane ideal-vs-noisy fidelity: one ``np.vdot`` per distinct row.

        A static lane's fidelity depends on its noisy row alone; a dynamic
        lane's on its (ideal row, noisy row) pair, and a lane whose ideal
        branch was lost scores 0.
        """
        noisy = state.canonical()
        if ideal is None:
            rows, inverse = np.unique(state.lane_rows, return_inverse=True)
            per_row = [float(abs(np.vdot(self._ideal_vector, noisy[row])) ** 2) for row in rows]
            return np.array(per_row, dtype=np.float64)[inverse]
        clean = ideal.canonical()
        fidelities = np.zeros(alive.size, dtype=np.float64)
        live = np.flatnonzero(alive)
        pairs, inverse = np.unique(
            ideal.lane_rows[live] * state.count + state.lane_rows[live], return_inverse=True
        )
        per_pair = [
            float(abs(np.vdot(clean[pair // state.count], noisy[pair % state.count])) ** 2)
            for pair in pairs
        ]
        fidelities[live] = np.array(per_pair, dtype=np.float64)[inverse]
        return fidelities

    def _evolve_block(
        self, seed: int, base_shot: int, count: int
    ) -> tuple[GeneratorLanes, RowTable, np.ndarray, np.ndarray, np.ndarray]:
        """Replay one block of tracked shots with the sampled noise injected.

        The block is one :class:`~repro.noise.kernel.RowTable` from its
        first op to its last: it starts as a single |0…0> row, fused runs
        evolve its rows without per-op dispatch, and dynamic ops, idle
        decay and fidelities act on rows too, splitting them only where
        lanes on one row need different ops.  A dynamic program mirrors
        :meth:`_run_shot_dynamic` per lane: each lane carries its own
        classical register and branch decisions, a parallel noise-free
        table follows the same branches, and mid-stream draws touch only
        the lanes that execute the drawing op.  Every lane's stream
        position therefore matches its scalar ``default_rng((seed, shot))``
        twin.  The up-front columns come from the chunk's shared
        :func:`~repro.noise.rng.stream_prefix`, and the live lanes are
        jumped past them; a static block then draws its Pauli strings
        before its first op.

        Returns the live RNG lanes, the evolved row table, the per-lane
        gate/idle event counts and the per-lane ideal-vs-noisy fidelities.
        """
        stream = stream_prefix(seed, base_shot, count)
        columns = stream.columns(self._draws)
        fired = np.empty((len(self.compiled.ops), count), dtype=bool)
        for row, threshold in zip(fired, self.op_probs):
            np.less(next(columns), threshold, out=row)
        idle_draws = np.empty((len(self.idle_qubits), count), dtype=np.float64)
        for row in idle_draws:
            row[:] = next(columns)
        gate_mask, idle_draws = fired.T, idle_draws.T
        lanes = stream.lanes_at(self._draws)
        state = RowTable(self.dims, count, self._row_capacity(gate_mask, idle_draws))
        ideal = alive = None
        if self.is_dynamic:
            ideal = RowTable(self.dims, count)
            alive = np.ones(count, dtype=bool)
            creg = np.zeros(count, dtype=np.int64)
            strings = strings_drawn_at_site(lanes)
        else:
            strings = SiteStrings(lanes, fired, self._schedule.bounds)
        for segment in self._schedule.segments:
            if isinstance(segment, int):
                self._apply_dynamic_op(segment, state, ideal, alive, creg, lanes, gate_mask)
                continue
            self._schedule.execute_run(segment, state, gate_mask, strings)
            if self.is_dynamic:
                self._schedule.execute_run_unitaries(segment, ideal)
        idle_counts = self._apply_idle_decay(state, idle_draws)
        fidelities = self._fidelities(state, ideal, alive)
        return lanes, state, gate_mask.sum(axis=1), idle_counts, fidelities

    def _run_tracked_batch(self, shots: int, seed: int, base_shot: int) -> NoisyResult:
        """Vectorised state-tracking sampling over blocks of shots.

        Every lane's evolution — op unitaries, sampled Pauli injections,
        damping jumps/survivals, the final fidelity and the outcome draw —
        reproduces the scalar ``run_reference`` loop bit for bit: the RNG
        lanes consume the identical stream positions and every row of the
        block's :class:`~repro.noise.kernel.RowTable` takes the identical
        kernels its lanes' scalar vectors would.
        """
        no_error = 0
        gate_events = 0
        idle_events = 0
        outcome_successes = 0
        fidelity_sum = 0.0
        block = self._tracked_block_shots()
        for start in range(0, shots, block):
            count = min(block, shots - start)
            lanes, state, gate_counts, idle_counts, fidelities = self._evolve_block(
                seed, base_shot + start, count
            )
            del state  # free the block's row storage before the next block
            final_draws = lanes.random_block(1)[:, 0]
            gate_events += int(gate_counts.sum())
            idle_events += int(idle_counts.sum())
            no_error += int(((gate_counts == 0) & (idle_counts == 0)).sum())
            outcome_successes += int((final_draws < fidelities).sum())
            for fidelity in fidelities:
                # accumulate in shot order with plain adds, matching the
                # scalar loop's running sum bit for bit
                fidelity_sum += float(fidelity)
        return NoisyResult(
            shots=shots,
            seed=seed,
            no_error_shots=no_error,
            gate_events=gate_events,
            idle_events=idle_events,
            tracked=True,
            outcome_successes=outcome_successes,
            outcome_fidelity_sum=fidelity_sum,
        )

    def run(self, shots: int, seed: int, base_shot: int = 0) -> NoisyResult:
        """Sample ``shots`` trajectories starting at absolute index ``base_shot``.

        Both engine modes take a chunk-batched vectorised path: event-only
        sampling batches the stochastic draws, state tracking additionally
        evolves the block's distinct trajectories as one row table.  Both honour the
        per-shot ``(seed, shot)`` RNG-stream contract, so the vectorised
        paths — and any chunk split of either — are bit-identical to the
        scalar loop (asserted by :meth:`run_reference` comparisons in the
        test suite).

        A zero-shot batch is valid and returns the zero-shot result.
        """
        check_shot_span(base_shot, shots)
        if self.track_state:
            return self._run_tracked_batch(shots, seed, base_shot)
        return self._run_event_batch(shots, seed, base_shot)

    def iter_final_vectors(self, shots: int, seed: int, base_shot: int = 0):
        """Yield each trajectory's final state vector, in shot order.

        Streaming variant of :meth:`final_vectors` for sweep-scale shot
        counts: only one block of states (at most
        ``TRACKED_BLOCK_AMPLITUDES`` amplitudes) is live at a time, so
        memory stays bounded however many shots are requested.  Replays
        the same deterministic per-shot streams :meth:`run` would use, and
        is the one place a block's rows expand into per-lane vectors
        (state-tracking mode only).  The arguments are
        checked at call time, before the first vector is requested.
        """
        if not self.track_state:
            raise VerificationError("final_vectors requires track_state=True")
        check_shot_span(base_shot, shots)
        return self._stream_final_vectors(shots, seed, base_shot)

    def _stream_final_vectors(self, shots: int, seed: int, base_shot: int):
        block = self._tracked_block_shots()
        for start in range(0, shots, block):
            count = min(block, shots - start)
            yield from self._evolve_block(seed, base_shot + start, count)[1].vectors()

    def final_vectors(self, shots: int, seed: int, base_shot: int = 0) -> list[np.ndarray]:
        """Final state vector of each trajectory, as one list (capped).

        Used by the density-matrix agreement path.  Materialising every
        vector costs O(shots x dimension) memory, so this wrapper refuses
        more than ``FINAL_VECTORS_MAX_SHOTS`` shots — stream
        :meth:`iter_final_vectors` instead at sweep scale.
        """
        if shots > FINAL_VECTORS_MAX_SHOTS:
            raise ValueError(
                f"final_vectors materialises every state vector; {shots} shots "
                f"exceeds the {FINAL_VECTORS_MAX_SHOTS}-shot cap — iterate "
                "iter_final_vectors() instead"
            )
        return list(self.iter_final_vectors(shots, seed, base_shot=base_shot))


def simulate_noisy(
    compiled: CompiledCircuit,
    model: NoiseModel | NoiseSpec,
    shots: int,
    seed: int = 0,
    track_state: bool = False,
) -> NoisyResult:
    """Monte Carlo estimate of a compiled circuit's success probability.

    Returns a :class:`NoisyResult` whose ``success_probability`` (fraction
    of error-free trajectories) estimates the analytic EPS, with a Wilson
    confidence interval.  The same ``seed`` always produces a bit-identical
    result.
    """
    return TrajectoryEngine(compiled, model, track_state=track_state).run(shots, seed)
