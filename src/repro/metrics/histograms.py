"""Gate-type histograms (Figure 8).

Figure 8 breaks a compiled circuit into the "styles" of gates it uses: bare
single-qubit gates, single-ququart gates, internal CX, qubit-qubit CX,
partial CX between a qubit and a ququart, partial CX between two ququarts,
and the corresponding SWAP families.
"""

from __future__ import annotations

from repro.compiler.result import CompiledCircuit
from repro.gates.styles import GateStyle

#: Display order and labels used by the Figure 8 reproduction.
FIGURE8_CATEGORIES: tuple[tuple[str, tuple[GateStyle, ...]], ...] = (
    ("single qubit", (GateStyle.SINGLE_QUBIT,)),
    ("single ququart", (GateStyle.SINGLE_QUQUART, GateStyle.COMBINED_QUQUART)),
    ("internal CX", (GateStyle.INTERNAL_CX,)),
    ("qubit-qubit CX", (GateStyle.QUBIT_QUBIT_CX,)),
    ("qubit-ququart CX", (GateStyle.QUBIT_QUQUART_CX,)),
    ("ququart-ququart CX", (GateStyle.QUQUART_QUQUART_CX,)),
    ("internal SWAP", (GateStyle.INTERNAL_SWAP,)),
    ("qubit-qubit SWAP", (GateStyle.QUBIT_QUBIT_SWAP,)),
    ("qubit-ququart SWAP", (GateStyle.QUBIT_QUQUART_SWAP,)),
    ("ququart-ququart SWAP", (GateStyle.QUQUART_QUQUART_SWAP,)),
    ("full ququart SWAP", (GateStyle.FULL_QUQUART_SWAP,)),
    ("encode/decode", (GateStyle.ENCODE, GateStyle.DECODE)),
)


def grouped_histogram(compiled: CompiledCircuit) -> dict[str, int]:
    """Histogram grouped into the Figure 8 display categories."""
    styles = compiled.style_counts()
    grouped: dict[str, int] = {}
    for label, members in FIGURE8_CATEGORIES:
        grouped[label] = sum(styles.get(style, 0) for style in members)
    return grouped
