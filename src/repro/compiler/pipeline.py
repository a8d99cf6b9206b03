"""The Qompress compilation pipeline.

:class:`QompressCompiler` glues the stages together:

    decompose -> plan (compression strategy) -> map -> route -> schedule

and also implements the Full-Ququart (FQ) baseline compilation mode, in
which every operation between different ququarts requires decoding both
ququarts, performing a bare-qubit gate, and re-encoding (Section 6.2).
"""

from __future__ import annotations

from repro.arch.device import Device
from repro.arch.interaction_graph import Slot
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.decompose import decompose_to_basis
from repro.compiler.costs import CostModel
from repro.compiler.mapping import initial_mapping
from repro.compiler.plan import CompressionPlan
from repro.compiler.result import CompiledCircuit, PhysicalOp
from repro.compiler.routing import Router
from repro.compiler.scheduling import schedule_ops


class QompressCompiler:
    """Compile logical circuits onto a mixed-radix device.

    Parameters
    ----------
    device:
        The target :class:`~repro.arch.device.Device`.
    strategy:
        A compression strategy exposing ``plan(circuit, device) ->
        CompressionPlan`` and a ``name`` attribute.  If omitted, the
        Extended Qubit Mapping behaviour (free pairing) is used.
    """

    def __init__(
        self,
        device: Device,
        strategy=None,
        merge_single_qubit_gates: bool = True,
        reencode_after_measure: bool = True,
        verify: bool = False,
    ) -> None:
        self.device = device
        self.strategy = strategy
        self.merge_single_qubit_gates = merge_single_qubit_gates
        #: Strategy decision for dynamic circuits: after a mid-circuit
        #: measurement forces a ququart decode, re-encode the pair (True,
        #: preserves the compressed layout) or leave it decoded (False,
        #: saves the 608 ns re-encode at the cost of a permanently bare
        #: partner on an ancilla unit).
        self.reencode_after_measure = reencode_after_measure
        #: Opt-in post-compile static verification: every compiled program
        #: is run through :func:`repro.analysis.verify_compiled` and an
        #: error-severity finding raises
        #: :class:`~repro.simulation.verify.VerificationError`.  Linear in
        #: op count (no simulation), so it scales to programs replay
        #: cannot check.
        self.verify = verify

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def compile(self, circuit: QuantumCircuit) -> CompiledCircuit:
        """Compile a logical circuit and return the scheduled physical program."""
        lowered = decompose_to_basis(circuit)
        if self.strategy is None:
            plan = CompressionPlan(allow_free_pairing=True)
            strategy_name = "eqm"
        else:
            plan = self.strategy.plan(lowered, self.device)
            strategy_name = self.strategy.name
        return self.compile_with_plan(lowered, plan, strategy_name, already_lowered=True)

    def compile_with_plan(
        self,
        circuit: QuantumCircuit,
        plan: CompressionPlan,
        strategy_name: str,
        already_lowered: bool = False,
    ) -> CompiledCircuit:
        """Compile with an explicit plan (used by the exhaustive search)."""
        lowered = circuit if already_lowered else decompose_to_basis(circuit)
        if plan.full_ququart:
            return self._verified(self._compile_full_ququart(lowered, plan, strategy_name))
        placement, ququart_units = initial_mapping(
            lowered,
            self.device,
            allow_free_pairing=plan.allow_free_pairing,
            forced_pairs=plan.pairs,
            qubit_only=plan.qubit_only,
        )
        cost_model = CostModel(self.device, ququart_units)
        router = Router(self.device, cost_model, placement,
                        reencode_after_measure=self.reencode_after_measure)
        ops, final_placement = router.run(lowered)
        durations = self.device.durations
        ops = schedule_ops(
            ops,
            combined_duration_ns=durations.duration("x01"),
            combined_fidelity=durations.fidelity("x01"),
            merge_singles=self.merge_single_qubit_gates,
        )
        compressed = self._co_located_pairs(placement)
        return self._verified(CompiledCircuit(
            circuit_name=circuit.name,
            device=self.device,
            strategy_name=strategy_name,
            ops=ops,
            initial_placement=dict(placement),
            final_placement=final_placement,
            ququart_units=ququart_units,
            compressed_pairs=compressed,
            num_logical_qubits=circuit.num_qubits,
            lowered_circuit=lowered,
        ))

    def _verified(self, compiled: CompiledCircuit) -> CompiledCircuit:
        """Run the opt-in post-compile static verifier on a result."""
        if self.verify:
            # Imported lazily: repro.analysis depends on the compiler IR,
            # so a module-level import would be a cycle.
            from repro.analysis import verify_compiled

            verify_compiled(compiled).raise_if_errors()
        return compiled

    @staticmethod
    def _co_located_pairs(placement: dict[int, Slot]) -> tuple[tuple[int, int], ...]:
        by_unit: dict[int, list[int]] = {}
        for qubit, (unit, _slot) in placement.items():
            by_unit.setdefault(unit, []).append(qubit)
        pairs = [tuple(sorted(qubits)) for qubits in by_unit.values() if len(qubits) == 2]
        return tuple(sorted(pairs))

    # ------------------------------------------------------------------
    # FQ baseline: full ququart pairing with encode / decode
    # ------------------------------------------------------------------
    def _compile_full_ququart(
        self, circuit: QuantumCircuit, plan: CompressionPlan, strategy_name: str
    ) -> CompiledCircuit:
        """Compile under the prior-work model without partial operations.

        Pairs from the plan are encoded into ququarts up front.  Operations
        inside a pair use the fast internal gates; any operation that crosses
        ququart boundaries requires routing whole ququarts adjacent with
        SWAP4, decoding both operand ququarts into neighbouring ancilla
        units, running the bare-qubit gate, and re-encoding.
        """
        pairs = plan.pairs
        if not pairs:
            raise ValueError("the full-ququart baseline requires an explicit pairing")
        durations = self.device.durations
        placement, ququart_units = initial_mapping(
            circuit, self.device, allow_free_pairing=False, forced_pairs=pairs,
        )
        # Qubits not covered by a pair remain bare; that is allowed.
        unit_of: dict[int, int] = {q: slot[0] for q, slot in placement.items()}
        slot_of: dict[int, Slot] = dict(placement)

        ops: list[PhysicalOp] = []

        def emit(gate: str, units: tuple[int, ...], logical: tuple[int, ...],
                 communication: bool = False, moves: dict[int, Slot] | None = None,
                 source: int = -1, slots: tuple[Slot, ...] = (),
                 cbits: tuple[int, ...] = (),
                 condition: tuple[tuple[int, ...], int] | None = None) -> None:
            ops.append(
                PhysicalOp(
                    gate=gate,
                    units=units,
                    logical_qubits=logical,
                    duration_ns=durations.duration(gate),
                    fidelity=durations.fidelity(gate),
                    is_communication=communication,
                    moves=dict(moves or {}),
                    source_gate=source,
                    slots=slots,
                    cbits=cbits,
                    condition=condition,
                )
            )

        # Initial encoding of every pair: qubit b joins a on the ququart
        # (the slot-level transport the state replayer models).
        for a, b in pairs:
            unit = unit_of[a]
            ancilla = self._fq_ancilla(unit, ququart_units)
            emit("enc", (unit, ancilla), (a, b), communication=True,
                 slots=(slot_of[b], (ancilla, 0)))

        partner: dict[int, int] = {}
        for a, b in pairs:
            partner[a] = b
            partner[b] = a

        for index, gate in enumerate(circuit):
            if gate.name == "barrier":
                continue
            if gate.name == "measure":
                qubit = gate.qubits[0]
                emit("measure", (unit_of[qubit],), gate.qubits, source=index,
                     cbits=gate.cbits)
                continue
            if gate.name in ("measure_mid", "reset"):
                # Decode-before-measure: FQ has no partial operations, so a
                # mid-circuit measurement of a paired qubit always decodes
                # the ququart to an ancilla and re-encodes afterwards.
                qubit = gate.qubits[0]
                unit = unit_of[qubit]
                other = partner.get(qubit)
                if unit in ququart_units and other is not None:
                    ancilla = self._fq_ancilla(unit, ququart_units)
                    emit("dec", (unit, ancilla), (qubit, other), communication=True,
                         source=index, slots=(slot_of[other], (ancilla, 0)))
                    emit(gate.name, (unit,), (qubit,), source=index,
                         slots=(slot_of[qubit],), cbits=gate.cbits,
                         condition=gate.condition)
                    emit("enc", (unit, ancilla), (qubit, other), communication=True,
                         source=index, slots=(slot_of[other], (ancilla, 0)))
                else:
                    emit(gate.name, (unit,), (qubit,), source=index,
                         slots=(slot_of[qubit],), cbits=gate.cbits,
                         condition=gate.condition)
                continue
            if gate.num_qubits == 1:
                qubit = gate.qubits[0]
                unit = unit_of[qubit]
                if unit in ququart_units:
                    emit("x0" if slot_of[qubit][1] == 0 else "x1", (unit,), (qubit,),
                         source=index, slots=(slot_of[qubit],), condition=gate.condition)
                else:
                    emit("x", (unit,), (qubit,), source=index, slots=(slot_of[qubit],),
                         condition=gate.condition)
                continue
            control, target = gate.qubits
            if partner.get(control) == target:
                # Fast internal operation, the selling point of prior work.
                gate_name = "swap_in" if gate.name == "swap" else (
                    "cx0_in" if slot_of[control][1] == 0 else "cx1_in"
                )
                emit(gate_name, (unit_of[control],), (control, target), source=index,
                     slots=(slot_of[control], slot_of[target]), condition=gate.condition)
                continue
            # External operation: route ququarts adjacent, decode, act, re-encode.
            self._fq_external_op(
                gate.name, control, target, index, unit_of, slot_of, partner,
                ququart_units, emit, condition=gate.condition,
            )

        ops = schedule_ops(
            ops,
            combined_duration_ns=durations.duration("x01"),
            combined_fidelity=durations.fidelity("x01"),
            merge_singles=False,
        )
        return CompiledCircuit(
            circuit_name=circuit.name,
            device=self.device,
            strategy_name=strategy_name,
            ops=ops,
            initial_placement=dict(placement),
            final_placement=dict(slot_of),
            ququart_units=ququart_units,
            compressed_pairs=tuple(sorted(tuple(sorted(p)) for p in pairs)),
            num_logical_qubits=circuit.num_qubits,
            lowered_circuit=circuit,
        )

    def _fq_external_op(
        self, name: str, control: int, target: int, source: int,
        unit_of: dict[int, int], slot_of: dict[int, Slot], partner: dict[int, int],
        ququart_units: frozenset[int], emit,
        condition: tuple[tuple[int, ...], int] | None = None,
    ) -> None:
        topology = self.device.topology
        unit_c = unit_of[control]
        unit_t = unit_of[target]
        # Route at the qudit level with full SWAP4 operations.
        if not topology.are_adjacent(unit_c, unit_t) and unit_c != unit_t:
            path = [unit_c]
            current = unit_c
            while not topology.are_adjacent(current, unit_t):
                neighbors = topology.neighbors(current)
                current = min(
                    neighbors, key=lambda n: topology.shortest_path_length(n, unit_t)
                )
                path.append(current)
            for here, there in zip(path, path[1:]):
                moved: dict[int, Slot] = {}
                occupants_here = [q for q, u in unit_of.items() if u == here]
                occupants_there = [q for q, u in unit_of.items() if u == there]
                for qubit in occupants_here:
                    moved[qubit] = (there, slot_of[qubit][1])
                for qubit in occupants_there:
                    moved[qubit] = (here, slot_of[qubit][1])
                emit("swap4", (here, there), tuple(occupants_here + occupants_there),
                     communication=True, moves=moved, source=source,
                     slots=((here, 0), (here, 1), (there, 0), (there, 1)))
                for qubit, new_slot in moved.items():
                    unit_of[qubit] = new_slot[0]
                    slot_of[qubit] = new_slot
            unit_c = unit_of[control]
            unit_t = unit_of[target]
        # Decode both operand ququarts (if encoded), run the bare gate,
        # re-encode.  Ancillas must avoid the gate's own operand units (a
        # decode may not park a partner where the bare gate acts) and each
        # other; re-encodes unwind in reverse order so a shared fallback
        # ancilla still round-trips correctly.
        decoded: list[tuple[int, int, int, int]] = []  # (unit, qubit, partner, ancilla)
        operand_units = frozenset((unit_of[control], unit_of[target]))
        used_ancillas: set[int] = set()
        for qubit in (control, target):
            unit = unit_of[qubit]
            if unit in ququart_units:
                other = partner[qubit]
                ancilla = self._fq_ancilla(
                    unit, ququart_units, exclude=operand_units | used_ancillas
                )
                used_ancillas.add(ancilla)
                emit("dec", (unit, ancilla), (qubit, other), communication=True,
                     source=source, slots=(slot_of[other], (ancilla, 0)))
                decoded.append((unit, qubit, other, ancilla))
        bare_gate = "swap2" if name == "swap" else "cx2"
        # Communication (swap4/dec/enc) stays unconditional; only the logical
        # interaction itself is classically controlled.
        emit(bare_gate, (unit_of[control], unit_of[target]), (control, target),
             source=source, slots=(slot_of[control], slot_of[target]),
             condition=condition)
        for unit, qubit, other, ancilla in reversed(decoded):
            emit("enc", (unit, ancilla), (qubit, other), communication=True,
                 source=source, slots=(slot_of[other], (ancilla, 0)))

    def _fq_ancilla(
        self,
        unit: int,
        ququart_units: frozenset[int],
        exclude: frozenset[int] | set[int] = frozenset(),
    ) -> int:
        """Unit that temporarily holds a decoded partner qubit.

        Prefers bare neighbours, skipping ``exclude`` (the surrounding
        gate's operand units and already-claimed ancillas) so the parked
        qubit can never collide with the operation being performed; falls
        back to any non-excluded neighbour, then to the original
        first-neighbour choice on degenerate topologies.
        """
        neighbors = self.device.topology.neighbors(unit)
        bare = [n for n in neighbors if n not in ququart_units and n not in exclude]
        if bare:
            return bare[0]
        free = [n for n in neighbors if n not in exclude]
        if free:
            return free[0]
        return neighbors[0]
