"""Name-to-backend registry: ``register_backend`` / ``get_backend``.

Backends register under a short name (``"trajectory"``, ``"replay"``,
``"external-sim"``) that plan points carry declaratively and the CLI
exposes as ``--backend``.  The registry holds classes and lazily
instantiates one singleton per name — backend instances own per-process
memos (compiled handles), so every caller in a process shares them.

The three built-in backends are listed as ``"module:class"`` strings and
imported on first lookup, so listing names (the CLI's ``--backend``
choices) loads no backend implementation.  Third-party code registers a
class::

    from repro.backends import ExecutionBackend, register_backend

    @register_backend("my-sim")
    class MySimBackend(ExecutionBackend):
        name = "my-sim"
        ...
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.backends.contract import ExecutionBackend


class BackendError(RuntimeError):
    """Base class for execution-backend failures."""


class UnknownBackendError(BackendError, KeyError):
    """A backend name that no registered backend answers to."""


class DuplicateBackendError(BackendError, ValueError):
    """A second registration under an already-taken backend name."""


_REGISTRY: dict[str, type[ExecutionBackend] | str] = {
    "external-sim": "repro.backends.external:ExternalSimBackend",
    "replay": "repro.backends.replay:ReplayBackend",
    "trajectory": "repro.backends.trajectory:TrajectoryBackend",
}
_INSTANCES: dict[str, ExecutionBackend] = {}


def register_backend(name: str):
    """Class decorator registering an :class:`ExecutionBackend` under ``name``.

    Raises :class:`DuplicateBackendError` if the name is taken and
    :class:`TypeError` if the class does not implement the contract.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")

    def decorator(cls: type[ExecutionBackend]) -> type[ExecutionBackend]:
        # the contract imports the compile stack; a class subclassing it
        # has loaded it already
        from repro.backends.contract import ExecutionBackend

        if not (isinstance(cls, type) and issubclass(cls, ExecutionBackend)):
            raise TypeError(
                f"backend {name!r} must subclass repro.backends.ExecutionBackend, "
                f"got {cls!r}"
            )
        if name in _REGISTRY:
            raise DuplicateBackendError(
                f"backend name {name!r} is already registered "
                f"(by {getattr(_REGISTRY[name], '__qualname__', _REGISTRY[name])})"
            )
        _REGISTRY[name] = cls
        return cls

    return decorator


def unregister_backend(name: str) -> None:
    """Remove a registration (primarily for tests tearing down toy backends)."""
    _REGISTRY.pop(name, None)
    _INSTANCES.pop(name, None)


def get_backend(name: str) -> ExecutionBackend:
    """Singleton backend instance for ``name``.

    Raises :class:`UnknownBackendError` (a ``KeyError``) for unregistered
    names, listing what is available.
    """
    instance = _INSTANCES.get(name)
    if instance is None:
        cls = _REGISTRY.get(name)
        if cls is None:
            raise UnknownBackendError(
                f"unknown execution backend {name!r}; "
                f"registered backends: {', '.join(list_backends())}"
            )
        if isinstance(cls, str):
            module, _, attribute = cls.partition(":")
            cls = _REGISTRY[name] = getattr(importlib.import_module(module), attribute)
        instance = _INSTANCES[name] = cls()
    return instance


def list_backends() -> tuple[str, ...]:
    """Sorted names of every registered backend."""
    return tuple(sorted(_REGISTRY))
