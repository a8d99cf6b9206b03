"""Strategy registry: every compression strategy by its CLI and plan-point names."""

from __future__ import annotations

import importlib

from repro.compression.base import CompressionStrategy
from repro.compression.names import STRATEGY_CLASSES


def _load(path: str) -> type[CompressionStrategy]:
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


_STRATEGIES: dict[str, type[CompressionStrategy]] = {
    name: _load(path) for name, path in STRATEGY_CLASSES.items()
}


def get_strategy(name: str, **kwargs) -> CompressionStrategy:
    """Instantiate a compression strategy by (case-insensitive) name."""
    key = name.strip().lower()
    if key not in _STRATEGIES:
        raise KeyError(
            f"unknown compression strategy {name!r}; choose one of {sorted(set(_STRATEGIES))}"
        )
    return _STRATEGIES[key](**kwargs)
