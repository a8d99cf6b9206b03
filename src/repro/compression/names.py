"""Every strategy name, with the class it builds as ``"module:Class"``.

Kept apart from the strategies so that listing the names (the CLI's
``--strategy`` choices) loads no compiler code;
:mod:`repro.compression.registry` imports the classes.
"""

from __future__ import annotations

STRATEGY_CLASSES: dict[str, str] = {
    "qubit_only": "repro.compression.baselines:QubitOnly",
    "fq": "repro.compression.baselines:FullQuquart",
    "full_ququart": "repro.compression.baselines:FullQuquart",
    "eqm": "repro.compression.eqm:ExtendedQubitMapping",
    "rb": "repro.compression.ring_based:RingBased",
    "ring_based": "repro.compression.ring_based:RingBased",
    "awe": "repro.compression.awe:AverageWeightPerEdge",
    "average_weight_per_edge": "repro.compression.awe:AverageWeightPerEdge",
    "pp": "repro.compression.progressive:ProgressivePairing",
    "progressive_pairing": "repro.compression.progressive:ProgressivePairing",
    "ec": "repro.compression.exhaustive:ExhaustiveCompression",
    "exhaustive": "repro.compression.exhaustive:ExhaustiveCompression",
}
