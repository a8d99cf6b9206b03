"""Physical operations and the compiled-circuit container."""

from __future__ import annotations

import pickle
from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields
from operator import attrgetter

from repro.arch.device import Device
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.gates.library import gate_spec
from repro.gates.styles import GateStyle

#: The bulky fields a pickled :class:`CompiledCircuit` carries as nested
#: pickles, in this order, each decoded on first read.
PACKED_FIELDS = ("ops", "lowered_circuit")

#: Memos derived from the op stream; rebuilt on demand, never pickled.
DERIVED_CACHES = ("_residency_cache", "_schedule_memo")

_UNPICKLED = frozenset(PACKED_FIELDS + DERIVED_CACHES + ("_packed",))


@dataclass
class PhysicalOp:
    """One operation emitted by the compiler onto physical units.

    Parameters
    ----------
    gate:
        Physical gate name from the Table 1 library (e.g. ``"cx0q"``).
    units:
        Physical unit indices the operation occupies, in gate operand order.
    logical_qubits:
        Logical circuit qubits involved (empty for pure-communication ops on
        holes).
    duration_ns / fidelity:
        Duration and success rate resolved from the device's duration table.
    is_communication:
        True for SWAPs inserted by the router (and FQ encode/decode pairs)
        rather than by the source circuit.
    moves:
        For data-moving operations, the relocation of logical qubits it
        causes, as ``{logical_qubit: (new_unit, new_slot)}``.  Used for the
        coherence (residency) accounting.
    start_ns:
        Start time assigned by the scheduler; -1 until scheduled.
    source_gate:
        Index of the logical gate that caused this op, or -1 for inserted
        communication.
    """

    gate: str
    units: tuple[int, ...]
    logical_qubits: tuple[int, ...] = ()
    duration_ns: float = 0.0
    fidelity: float = 1.0
    is_communication: bool = False
    moves: dict[int, tuple[int, int]] = field(default_factory=dict)
    start_ns: float = -1.0
    source_gate: int = -1
    #: Slot operands (unit, encoding position) in gate semantic order; used
    #: by the simulation-based equivalence checker.
    slots: tuple[tuple[int, int], ...] = ()
    #: Classical bits written by a measurement op (flat logical indices).
    cbits: tuple[int, ...] = ()
    #: Classical control ``((bits...), value)``: the op executes only when
    #: the flat classical bits, read LSB-first ascending, encode ``value``.
    condition: tuple[tuple[int, ...], int] | None = None

    @property
    def style(self) -> GateStyle:
        """The :class:`GateStyle` of the physical gate."""
        return gate_spec(self.gate).style

    @property
    def end_ns(self) -> float:
        """Scheduled end time (start + duration)."""
        return self.start_ns + self.duration_ns

    @property
    def is_dynamic(self) -> bool:
        """True for mid-circuit measurement/reset or conditioned ops."""
        return self.gate in ("measure_mid", "reset") or self.condition is not None


# ----------------------------------------------------------------------
# packed payloads: a pickled ("rows", rows) of plain field tuples
# ----------------------------------------------------------------------
#: Tag of a rows payload.  A payload packed before rows is a pickle of the
#: objects themselves, told apart by its bytes: a rows payload continues,
#: after the protocol header and a 9-byte frame opcode, with the tag.
_ROWS = "rows"
_PROTOCOL = pickle.HIGHEST_PROTOCOL
_PICKLE_HEAD = bytes((pickle.PROTO[0], _PROTOCOL))
_ROWS_MARK = bytes((pickle.SHORT_BINUNICODE[0], len(_ROWS))) + _ROWS.encode()
_MARK_AT = len(_PICKLE_HEAD) + 9
#: Fields in dataclass order, so ``PhysicalOp(*row)`` and ``Gate(*row)`` rebuild them.
_op_row = attrgetter(*(spec.name for spec in fields(PhysicalOp)))
_gate_row = attrgetter(*(spec.name for spec in fields(Gate)))


def _pack(name: str, value) -> bytes:
    """A packed field's rows payload, which names no pickle global.

    ``ops`` becomes one field tuple per op; ``lowered_circuit`` its pickled
    attributes with ``_gates`` as one field tuple per gate (or ``None``).
    """
    if name == "ops":
        rows = [_op_row(op) for op in value]
    elif value is None:
        rows = None
    else:
        rows = value.__getstate__()
        rows["_gates"] = [_gate_row(gate) for gate in rows["_gates"]]
    return pickle.dumps((_ROWS, rows), protocol=_PROTOCOL)


def _unpack(name: str, payload: bytes):
    """Decode a payload :func:`_pack` wrote, or a pickled object from before rows."""
    value = pickle.loads(payload)
    if type(value) is not tuple or value[:1] != (_ROWS,):
        return value
    rows = value[1]
    if name == "ops":
        return [PhysicalOp(*row) for row in rows]
    if rows is None:
        return None
    rows["_gates"] = [Gate(*row) for row in rows["_gates"]]
    circuit = QuantumCircuit.__new__(QuantumCircuit)
    circuit.__dict__.update(rows)
    return circuit


def _is_legacy(payload: bytes) -> bool:
    """A pickle of the objects themselves; bytes that are no pickle are not."""
    return (payload[:len(_PICKLE_HEAD)] == _PICKLE_HEAD
            and payload[_MARK_AT:_MARK_AT + len(_ROWS_MARK)] != _ROWS_MARK)


@dataclass
class CompiledCircuit:
    """The output of the Qompress pipeline for one circuit on one device.

    Pickling packs ``ops`` and ``lowered_circuit`` — most of a stored
    result's bytes — as nested pickles of plain field tuples that are
    decoded on first attribute access, so a reader that only needs the
    placement or the report never pays for the op stream.  Re-pickling
    passes a field that was never read through as its stored bytes, so a
    redeemed result reproduces its blob byte for byte; a field stored
    before rows (a pickled object list) is re-encoded as rows instead.
    """

    #: Name of the source circuit.
    circuit_name: str
    #: The device the circuit was compiled for.
    device: Device
    #: Name of the compression strategy that produced this result.
    strategy_name: str
    #: Ordered physical operations with scheduled start times.
    ops: list[PhysicalOp]
    #: Initial placement: logical qubit -> (unit, slot).
    initial_placement: dict[int, tuple[int, int]]
    #: Final placement after routing: logical qubit -> (unit, slot).
    final_placement: dict[int, tuple[int, int]]
    #: Units operated in ququart mode (both slots enabled).
    ququart_units: frozenset[int]
    #: Logical qubit pairs that were co-encoded at mapping time.
    compressed_pairs: tuple[tuple[int, int], ...]
    #: Number of logical qubits in the source circuit.
    num_logical_qubits: int
    #: The lowered (1q/2q only) circuit the ops were generated from; used by
    #: the simulation-based equivalence checker.  May be ``None``.  (A
    #: factory, not ``= None``: a class-level default would shadow
    #: :meth:`__getattr__`, which decodes the packed value.)
    lowered_circuit: object | None = field(default_factory=lambda: None)

    # ------------------------------------------------------------------
    # pickling: packed fields decode on first read
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """The instance dict minus derived caches, bulky fields packed.

        A packed field that was decoded or set is packed afresh, and so is
        one stored before rows; any other field that was never read passes
        through as the bytes it was loaded with.  There is deliberately no
        ``__setstate__``: pickle's default restore interns the attribute
        names, which keeps re-pickling byte-stable.
        """
        attrs = self.__dict__
        state = {name: value for name, value in attrs.items() if name not in _UNPICKLED}
        stored = attrs.get("_packed", {})
        state["_packed"] = {
            name: _pack(name, getattr(self, name))
            if name in attrs or _is_legacy(stored[name]) else stored[name]
            for name in PACKED_FIELDS
        }
        return state

    def __getattr__(self, name: str):
        # only reached when normal lookup fails: decode a packed field once
        packed = self.__dict__.get("_packed")
        if packed is None or name not in PACKED_FIELDS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.__dict__.setdefault(name, _unpack(name, packed[name]))

    # ------------------------------------------------------------------
    # aggregate queries
    # ------------------------------------------------------------------
    @property
    def makespan_ns(self) -> float:
        """Total scheduled circuit duration in nanoseconds."""
        if not self.ops:
            return 0.0
        return max(op.end_ns for op in self.ops)

    @property
    def is_dynamic(self) -> bool:
        """True when the program contains mid-circuit measurement/reset or
        classically conditioned operations."""
        return any(op.is_dynamic for op in self.ops)

    @property
    def num_ops(self) -> int:
        """Total number of physical operations."""
        return len(self.ops)

    def gate_counts(self) -> Counter:
        """Histogram of physical gate names."""
        return Counter(op.gate for op in self.ops)

    def style_counts(self) -> Counter:
        """Histogram of :class:`GateStyle` categories (Figure 8 data)."""
        return Counter(op.style for op in self.ops)

    def communication_op_count(self) -> int:
        """Number of operations inserted purely for routing."""
        return sum(1 for op in self.ops if op.is_communication)

    # ------------------------------------------------------------------
    # flat schedules (cached; compiled circuits are immutable post-compile)
    # ------------------------------------------------------------------
    def cached_schedule(self, key: tuple, builder):
        """Build-once memo for derived schedules, keyed on the artifact.

        Trajectory kernel programs (:mod:`repro.noise.kernel`) and other
        expensive derivations hang off the compiled circuit so every
        engine over one artifact shares one build.  ``key`` must encode
        everything the derivation depends on besides the circuit itself
        (e.g. the register dims).  The memo assumes ``ops`` is not mutated
        after compilation, which holds for every pipeline output; a circuit
        built by hand must be finished before it is queried.  Callers must
        treat the returned object as read-only.
        """
        memo = getattr(self, "_schedule_memo", None)
        if memo is None:
            memo = {}
            self._schedule_memo = memo
        if key not in memo:
            memo[key] = builder()
        return memo[key]

    # ------------------------------------------------------------------
    # residency accounting (used by the coherence EPS metric)
    # ------------------------------------------------------------------
    def residency_segments(self) -> dict[int, list[tuple[float, float, int]]]:
        """Per logical qubit: ``(start_ns, end_ns, unit)`` residency spans.

        A logical qubit's radix at any instant is that of the physical unit
        currently holding it; the unit modes are fixed for the whole circuit,
        but qubits move between units when the router inserts SWAPs.  The
        spans per qubit always cover ``[0, makespan]``, matching the paper's
        worst-case assumption that every qubit is live for the entire
        circuit.  Zero-length spans are dropped.

        Computed once and cached (treat the returned structure as
        read-only); both EPS metrics and every trajectory-engine
        construction query it.
        """
        cached = getattr(self, "_residency_cache", None)
        if cached is not None:
            return cached
        makespan = self.makespan_ns
        results: dict[int, list[tuple[float, float, int]]] = {}
        transitions: dict[int, list[tuple[float, int]]] = defaultdict(list)
        for op in self.ops:
            for logical, (unit, _slot) in op.moves.items():
                transitions[logical].append((op.end_ns, unit))
        for logical, (unit, _slot) in self.initial_placement.items():
            segments: list[tuple[float, float, int]] = []
            current_unit = unit
            current_time = 0.0
            for time, new_unit in sorted(transitions.get(logical, [])):
                end = min(time, makespan)
                if end > current_time:
                    segments.append((current_time, end, current_unit))
                current_time = end
                current_unit = new_unit
            if makespan > current_time:
                segments.append((current_time, makespan, current_unit))
            results[logical] = segments
        self._residency_cache = results
        return results

    def qubit_mode_times(self) -> dict[int, tuple[float, float]]:
        """Per logical qubit: (time spent as a qubit, time spent in a ququart).

        Aggregates :meth:`residency_segments` by the mode of the unit holding
        the qubit during each span; the total per qubit always sums to the
        makespan.
        """
        results: dict[int, tuple[float, float]] = {}
        for logical, segments in self.residency_segments().items():
            qubit_time = 0.0
            ququart_time = 0.0
            for start, end, unit in segments:
                if unit in self.ququart_units:
                    ququart_time += end - start
                else:
                    qubit_time += end - start
            results[logical] = (qubit_time, ququart_time)
        return results

    # ------------------------------------------------------------------
    # interchange
    # ------------------------------------------------------------------
    def to_qasm(self) -> str:
        """Serialise the routed physical program as OpenQASM 2.0.

        Physical gates are declared ``opaque``; each op carries its
        scheduled start time and duration as a comment.  See
        :func:`repro.circuits.qasm.compiled_to_qasm`.
        """
        from repro.circuits.qasm import compiled_to_qasm

        return compiled_to_qasm(self)

    def summary(self) -> dict:
        """Compact dictionary summary used by reports and examples."""
        styles = self.style_counts()
        return {
            "circuit": self.circuit_name,
            "strategy": self.strategy_name,
            "device": self.device.name,
            "logical_qubits": self.num_logical_qubits,
            "physical_units_used": len(
                {unit for placement in self.initial_placement.values() for unit in [placement[0]]}
            ),
            "compressed_pairs": len(self.compressed_pairs),
            "ops": self.num_ops,
            "communication_ops": self.communication_op_count(),
            "internal_cx": styles.get(GateStyle.INTERNAL_CX, 0),
            "makespan_ns": self.makespan_ns,
        }
