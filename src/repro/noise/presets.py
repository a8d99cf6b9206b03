"""Named noise scenarios, kept apart from the noise model so listing them is cheap."""

from __future__ import annotations

import math

#: Named noise scenarios; values are :class:`NoiseSpec` keyword overrides.
NOISE_PRESETS: dict[str, dict] = {
    "ideal": {"gate_error_scale": 0.0, "t1_scale": math.inf},
    "table1": {},
    "pessimistic": {"gate_error_scale": 3.0, "t1_scale": 1.0 / 3.0},
    "heterogeneous": {"heterogeneity": 0.5, "hetero_seed": 2023},
}
