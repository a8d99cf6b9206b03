"""Pluggable execution backends behind one small compile/execute contract.

A backend is one way of answering plan points: the default ``"trajectory"``
backend runs the in-process Monte Carlo engine, ``"replay"`` serves stored
artifacts only (warm sweeps execute zero shots), and ``"external-sim"``
round-trips physical programs through OpenQASM into an independent
simulator and event estimator for cross-verification.  See
:mod:`repro.backends.contract` for the contract and content-key rules and
:mod:`repro.backends.registry` for name resolution.
"""

from repro.backends.contract import (
    BackendContractError,
    BackendError,
    CompiledHandle,
    DuplicateBackendError,
    ExecutionBackend,
    LRUMemo,
    ReplayMissError,
    UnknownBackendError,
    ensure_noisy_result,
)
from repro.backends.registry import (
    get_backend,
    list_backends,
    register_backend,
    unregister_backend,
)

__all__ = [
    "BackendContractError",
    "BackendError",
    "CompiledHandle",
    "DuplicateBackendError",
    "ExecutionBackend",
    "LRUMemo",
    "ReplayMissError",
    "UnknownBackendError",
    "ensure_noisy_result",
    "get_backend",
    "list_backends",
    "register_backend",
    "unregister_backend",
]
