"""Plan points and compile results as plain values.

A :class:`SweepPoint` captures *everything* needed to reproduce one compiled
data point — benchmark, size, strategy (with kwargs), device recipe and seed —
as a frozen, picklable, JSON-serialisable value.  That makes points safe to

* ship to a :class:`concurrent.futures.ProcessPoolExecutor` worker,
* use as content keys for the on-disk compile cache, and
* enumerate declaratively in a :class:`~repro.runner.plan.SweepPlan`.

The device is described by a :class:`DeviceSpec` recipe rather than a live
:class:`~repro.arch.device.Device` so that two points asking for the same
hardware compare (and hash) equal even across processes.

This module is the data layer the store, the spool and content keys share:
importing it, or unpickling a :class:`StrategyResult`, loads no compiler,
strategy, workload or noise code and neither numpy nor networkx.  The
worker side lives in :mod:`repro.runner.points`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.arch.device import Device
from repro.arch.topology import grid_for_circuit, heavy_hex_topology, ring_topology
from repro.compiler.result import CompiledCircuit
from repro.metrics.eps import EPSReport
from repro.pulses.durations import GateDurationTable

#: Backend a point executes on when it does not say otherwise.
DEFAULT_BACKEND = "trajectory"


@runtime_checkable
class ExecutionPoint(Protocol):
    """What a value must provide to ride a plan through the executor.

    A plan point is a frozen, picklable *description* of work: ``key()``
    is its stable content digest (what the artifact store, run manifests
    and in-flight dedupe share), ``payload()`` the JSON-serialisable
    representation that digest is computed over, and ``execute()`` the
    worker body that reconstructs everything deterministically.
    :class:`SweepPoint` and :class:`repro.noise.points.NoisePoint` are the
    two in-repo implementations.
    """

    def key(self) -> str:
        """Stable content digest for this point."""
        ...  # pragma: no cover - protocol stub

    def payload(self) -> dict:
        """JSON-serialisable representation used for content keying."""
        ...  # pragma: no cover - protocol stub

    def execute(self) -> object:
        """Perform the described work and return its result."""
        ...  # pragma: no cover - protocol stub


def ensure_execution_point(point) -> None:
    """Raise a clear ``TypeError`` unless ``point`` satisfies the protocol.

    Called by :func:`execute_point` and
    :func:`~repro.runner.cache.point_key`, so a non-conforming value fails
    loudly at the plan boundary instead of as an ``AttributeError`` inside
    a worker process.
    """
    missing = [
        name for name in ("key", "payload", "execute")
        if not callable(getattr(point, name, None))
    ]
    if missing:
        raise TypeError(
            f"{type(point).__name__} is not an ExecutionPoint: missing callable "
            f"{', '.join(name + '()' for name in missing)} "
            "(plan points must implement repro.runner.records.ExecutionPoint)"
        )


def make_device(
    kind: str,
    num_qubits: int,
    durations: GateDurationTable | None = None,
    t1_scale: float = 1.0,
    ququart_t1_ratio: float | None = None,
) -> Device:
    """Build a device of the requested kind, sized for the circuit if needed.

    ``kind`` is one of ``"grid"`` (sized to the circuit, Section 6.1),
    ``"heavy_hex"`` (65 units) or ``"ring"`` (65 units).
    """
    key = kind.strip().lower()
    if key == "grid":
        # The paper sizes the grid to the circuit qubit count; compression can
        # then free up to half the units.
        topology = grid_for_circuit(num_qubits)
    elif key in ("heavy_hex", "heavyhex", "hex"):
        topology = heavy_hex_topology()
    elif key == "ring":
        topology = ring_topology(65)
    else:
        raise KeyError(f"unknown device kind {kind!r}; use grid, heavy_hex or ring")
    device = Device(topology=topology, durations=durations or GateDurationTable())
    if t1_scale != 1.0:
        device = device.with_t1_scaled(t1_scale)
    if ququart_t1_ratio is not None:
        device = device.with_ququart_t1_ratio(ququart_t1_ratio)
    return device


def freeze_kwargs(kwargs: dict | None) -> tuple[tuple[str, object], ...]:
    """Normalise a kwargs dict into a sorted, hashable tuple of pairs."""
    if not kwargs:
        return ()
    return tuple(sorted(kwargs.items()))


@dataclass(frozen=True)
class DeviceSpec:
    """A reproducible recipe for building a device.

    Every sensitivity knob used by the paper's experiments is declarative:
    ``t1_scale`` (Figure 11), ``ququart_t1_ratio`` (Figure 12),
    ``qubit_error_scale`` (Figure 9) and the generic duration/fidelity
    overrides used by the ablations.  Overrides are sorted tuples of
    ``(gate_name, value)`` pairs so specs stay hashable and cache-keyable.
    """

    kind: str = "grid"
    t1_scale: float = 1.0
    ququart_t1_ratio: float | None = None
    qubit_error_scale: float | None = None
    duration_overrides: tuple[tuple[str, float], ...] = ()
    fidelity_overrides: tuple[tuple[str, float], ...] = ()

    def build(self, num_qubits: int) -> Device:
        """Materialise the device this spec describes, sized for ``num_qubits``."""
        table = GateDurationTable()
        if self.qubit_error_scale is not None:
            table = table.with_qubit_error_scaled(self.qubit_error_scale)
        if self.duration_overrides or self.fidelity_overrides:
            table = table.with_overrides(
                durations_ns=dict(self.duration_overrides),
                fidelities=dict(self.fidelity_overrides),
            )
        return make_device(
            self.kind,
            num_qubits,
            durations=table,
            t1_scale=self.t1_scale,
            ququart_t1_ratio=self.ququart_t1_ratio,
        )

    def payload(self) -> dict:
        """JSON-serialisable representation used for cache keying."""
        return {
            "kind": self.kind,
            "t1_scale": self.t1_scale,
            "ququart_t1_ratio": self.ququart_t1_ratio,
            "qubit_error_scale": self.qubit_error_scale,
            "duration_overrides": [list(pair) for pair in self.duration_overrides],
            "fidelity_overrides": [list(pair) for pair in self.fidelity_overrides],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "DeviceSpec":
        """Rebuild a spec from :meth:`payload` output (JSON round-trip safe)."""
        return cls(
            kind=payload["kind"],
            t1_scale=payload.get("t1_scale", 1.0),
            ququart_t1_ratio=payload.get("ququart_t1_ratio"),
            qubit_error_scale=payload.get("qubit_error_scale"),
            duration_overrides=tuple(
                (name, value) for name, value in payload.get("duration_overrides", ())
            ),
            fidelity_overrides=tuple(
                (name, value) for name, value in payload.get("fidelity_overrides", ())
            ),
        )


@dataclass(frozen=True)
class SweepPoint:
    """One (benchmark, size, strategy, device, seed) compile request.

    External OpenQASM programs become sweep points through
    :meth:`from_qasm`: the QASM text rides along in the (picklable) point so
    workers can rebuild the circuit, while the cache key carries only its
    SHA-256 digest — two files with identical text share a cache entry, any
    edit invalidates it.
    """

    benchmark: str
    num_qubits: int
    strategy: str
    device: DeviceSpec = field(default_factory=DeviceSpec)
    seed: int = 0
    #: Extra keyword arguments for the strategy constructor, frozen as sorted
    #: pairs (see :func:`freeze_kwargs`).
    strategy_kwargs: tuple[tuple[str, object], ...] = ()
    #: Extra keyword arguments for :class:`QompressCompiler` (e.g. the
    #: ``merge_single_qubit_gates`` ablation flag).
    compiler_kwargs: tuple[tuple[str, object], ...] = ()
    #: OpenQASM 2.0 source for external circuits; ``None`` for registry
    #: benchmarks.
    qasm: str | None = None
    #: Execution backend this point runs on (see :mod:`repro.backends`).
    backend: str = DEFAULT_BACKEND

    @classmethod
    def from_qasm(
        cls,
        text: str,
        strategy: str,
        device: DeviceSpec | str = "grid",
        seed: int = 0,
        name: str | None = None,
        strategy_kwargs: dict | None = None,
        compiler_kwargs: dict | None = None,
        backend: str = DEFAULT_BACKEND,
    ) -> "SweepPoint":
        """Content-keyed compile request for an external OpenQASM program.

        Parses ``text`` once to size the device and name the point; the
        parse is repeated in the worker, which keeps the point itself a
        plain value.
        """
        from repro.circuits.qasm import parse_qasm

        circuit = parse_qasm(text, name=name)
        spec = device if isinstance(device, DeviceSpec) else DeviceSpec(kind=device)
        return cls(
            benchmark=circuit.name,
            num_qubits=circuit.num_qubits,
            strategy=strategy,
            device=spec,
            seed=seed,
            strategy_kwargs=freeze_kwargs(strategy_kwargs),
            compiler_kwargs=freeze_kwargs(compiler_kwargs),
            qasm=text,
            backend=backend,
        )

    @classmethod
    def from_qasm_file(cls, path, strategy: str, **kwargs) -> "SweepPoint":
        """Like :meth:`from_qasm`, naming the circuit after the file stem
        (unless the source carries a ``// name:`` directive).

        The file is read exactly once, so the text the point carries is the
        text the name and size were derived from.
        """
        from pathlib import Path

        from repro.circuits.qasm import parse_qasm

        path = Path(path)
        text = path.read_text()
        name = parse_qasm(text).name
        if name == "qasm":  # no directive in the source: fall back to the stem
            name = path.stem
        return cls.from_qasm(text, strategy, name=name, **kwargs)

    def payload(self) -> dict:
        """JSON-serialisable representation used for cache keying.

        It is :meth:`spec` with the QASM text replaced by its SHA-256
        (``qasm_sha256``) and the backend by its content name.  The
        ``backend`` entry is the backend's *content name*, not its
        registry name: two executors never share store entries, while the
        replay backend (content name ``"trajectory"``) keys identically to
        the trajectory points whose stored artifacts it serves.
        """
        import hashlib

        from repro.backends.registry import content_name

        payload = self.spec()
        qasm = payload.pop("qasm")
        payload["qasm_sha256"] = (
            hashlib.sha256(qasm.encode("utf-8")).hexdigest() if qasm is not None else None
        )
        payload["backend"] = content_name(self.backend)
        return payload

    def key(self) -> str:
        """Stable content digest (see :func:`~repro.runner.cache.point_key`)."""
        from repro.runner.cache import point_key

        return point_key(self)

    def spec(self) -> dict:
        """Full JSON-serialisable reconstruction recipe for this point.

        Unlike :meth:`payload` — which digests the QASM text for compact
        keying — the spec carries everything needed to rebuild the point
        verbatim, so plans can be submitted to the sweep service's file
        spool and re-materialised in another process (:meth:`from_spec`).
        Keyword-argument values must themselves be JSON round-trip safe
        (numbers, strings, booleans).
        """
        return {
            "benchmark": self.benchmark,
            "num_qubits": self.num_qubits,
            "strategy": self.strategy,
            "device": self.device.payload(),
            "seed": self.seed,
            "strategy_kwargs": [list(pair) for pair in self.strategy_kwargs],
            "compiler_kwargs": [list(pair) for pair in self.compiler_kwargs],
            "qasm": self.qasm,
            "backend": self.backend,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "SweepPoint":
        """Rebuild a point from :meth:`spec` output.

        Keys it does not know are ignored, so specs that older spools
        wrote with a store-root entry still load.
        """
        return cls(
            benchmark=spec["benchmark"],
            num_qubits=spec["num_qubits"],
            strategy=spec["strategy"],
            device=DeviceSpec.from_payload(spec["device"]),
            seed=spec.get("seed", 0),
            strategy_kwargs=tuple(
                (name, value) for name, value in spec.get("strategy_kwargs", ())
            ),
            compiler_kwargs=tuple(
                (name, value) for name, value in spec.get("compiler_kwargs", ())
            ),
            qasm=spec.get("qasm"),
            backend=spec.get("backend", DEFAULT_BACKEND),
        )

    def build_circuit(self):
        """Rebuild the logical circuit this point describes (worker side)."""
        if self.qasm is not None:
            from repro.circuits.qasm import parse_qasm

            return parse_qasm(self.qasm, name=self.benchmark)
        # the workload builders are compute code: look them up where the
        # worker side keeps them, not at this module's import
        from repro.runner import points

        return points.build_benchmark(self.benchmark, self.num_qubits, seed=self.seed)

    def execute(self) -> "StrategyResult":
        """Compile and evaluate this point on its backend (see :func:`execute_point`)."""
        from repro.backends import get_backend

        return get_backend(self.backend).compile_point(self)


@dataclass(frozen=True)
class StrategyResult:
    """One compiled data point: the EPS report plus the compiled circuit."""

    benchmark: str
    num_qubits: int
    strategy: str
    report: EPSReport
    compiled: CompiledCircuit
