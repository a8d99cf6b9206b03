"""Pluggable execution backends behind one small compile/execute contract.

A backend is one way of answering plan points: the default ``"trajectory"``
backend runs the in-process Monte Carlo engine, ``"replay"`` serves stored
artifacts only (warm sweeps execute zero shots), and ``"external-sim"``
round-trips physical programs through OpenQASM into an independent
simulator and event estimator for cross-verification.  See
:mod:`repro.backends.contract` for the contract and content-key rules and
:mod:`repro.backends.registry` for name resolution.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".contract": ("BackendContractError", "ExecutionBackend", "LRUMemo", "ReplayMissError",
                  "ensure_noisy_result"),
    ".registry": ("BackendError", "DuplicateBackendError", "UnknownBackendError", "content_name",
                  "get_backend", "list_backends", "register_backend", "unregister_backend"),
})
