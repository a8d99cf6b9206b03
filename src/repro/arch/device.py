"""The device model: topology + durations + fidelities + coherence times.

Coherence follows Section 6.1.1: the qubit T1 is 163.5 microseconds and a
d-level system keeps roughly ``T1 / (d - 1)`` of it, so a ququart's worst
case T1 is 54.5 microseconds.  Both values, and the ratio between them, can
be overridden for the sensitivity studies of Figures 11 and 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.arch.topology import Topology, grid_for_circuit
from repro.pulses.durations import GateDurationTable

#: Default qubit T1 from the paper (microseconds).
DEFAULT_QUBIT_T1_US = 163.5
#: Worst-case ququart T1 = T1 / (d - 1) with d = 4 (microseconds).
DEFAULT_QUQUART_T1_US = DEFAULT_QUBIT_T1_US / 3.0


@dataclass(frozen=True)
class Device:
    """A mixed-radix quantum device.

    Parameters
    ----------
    topology:
        The physical coupling graph.
    durations:
        Gate duration / fidelity table (defaults to Table 1).
    qubit_t1_us:
        Coherence time of a unit operated as a qubit, in microseconds.
    ququart_t1_us:
        Coherence time of a unit operated as a ququart, in microseconds.
    name:
        Optional device name; defaults to the topology name.
    """

    topology: Topology
    durations: GateDurationTable = field(default_factory=GateDurationTable)
    qubit_t1_us: float = DEFAULT_QUBIT_T1_US
    ququart_t1_us: float = DEFAULT_QUQUART_T1_US
    name: str = ""

    def __post_init__(self) -> None:
        if self.qubit_t1_us <= 0 or self.ququart_t1_us <= 0:
            raise ValueError("coherence times must be positive")
        if not self.name:
            object.__setattr__(self, "name", self.topology.name)

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def grid_for_circuit(cls, num_qubits: int, **kwargs) -> "Device":
        """Grid device sized "just large enough" for ``num_qubits`` (Section 6.1)."""
        return cls(topology=grid_for_circuit(num_qubits), **kwargs)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_units(self) -> int:
        """Number of physical units."""
        return self.topology.num_units

    @property
    def capacity(self) -> int:
        """Maximum number of logical qubits with full ququart compression."""
        return 2 * self.topology.num_units

    @property
    def qubit_t1_ns(self) -> float:
        """Qubit-mode T1 in nanoseconds (gate durations are in ns)."""
        return self.qubit_t1_us * 1000.0

    @property
    def ququart_t1_ns(self) -> float:
        """Ququart-mode T1 in nanoseconds."""
        return self.ququart_t1_us * 1000.0

    def t1_ns(self, is_ququart: bool) -> float:
        """T1 (ns) for a unit operated in qubit or ququart mode."""
        return self.ququart_t1_ns if is_ququart else self.qubit_t1_ns

    # ------------------------------------------------------------------
    # derived devices (sensitivity studies)
    # ------------------------------------------------------------------
    def with_durations(self, durations: GateDurationTable) -> "Device":
        """Copy of the device using a different duration/fidelity table."""
        return replace(self, durations=durations)

    def with_t1_scaled(self, factor: float) -> "Device":
        """Scale both qubit and ququart T1 by ``factor`` (Figure 11 uses 10x).

        ``inf`` is a valid factor (no decay); NaN and non-positive ones raise.
        """
        if not factor > 0:
            raise ValueError(f"T1 scale factor must be positive, got {factor!r}")
        return replace(
            self,
            qubit_t1_us=self.qubit_t1_us * factor,
            ququart_t1_us=self.ququart_t1_us * factor,
        )

    def with_ququart_t1_ratio(self, ratio: float) -> "Device":
        """Set the ququart T1 to ``ratio`` times the qubit T1 (Figure 12 sweep)."""
        if not 0.0 < ratio <= 1.0:
            raise ValueError("the ququart/qubit T1 ratio must be in (0, 1]")
        return replace(self, ququart_t1_us=self.qubit_t1_us * ratio)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Device(name={self.name!r}, units={self.num_units}, "
            f"qubit_t1={self.qubit_t1_us:.1f}us, ququart_t1={self.ququart_t1_us:.1f}us)"
        )
