"""PEP 562 re-exports: a package names its public API and imports it on first use.

Every ``repro`` package ``__init__`` is a table of which submodule defines
each name it re-exports, so ``import repro.store`` costs the store alone
and not the compiler, the noise engine or numpy.  ``from repro.x import Name``
and ``from repro.x import *`` keep working; the first lookup of a name
imports its module and caches the value on the package.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]
                 ) -> tuple[Callable[[str], object], list[str]]:
    """``(__getattr__, __all__)`` for ``package`` re-exporting ``table``.

    ``table`` maps each module, relative to the package (``".result"``) or
    absolute, to the names it exports.  Names starting with ``_`` resolve but stay
    out of ``__all__``.  An unknown name raises ``AttributeError``, so
    ``from package import submodule`` still falls through to the import
    system.
    """
    homes = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        module = homes.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, [name for name in homes if not name.startswith("_")]
