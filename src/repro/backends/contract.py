"""The execution-backend contract: what every result source must provide.

A *backend* is one way of turning declarative plan points into results.
The contract is deliberately small — two methods::

    compile(circuit, device, strategy)  -> CompiledCircuit
    execute(compiled, shots, seed)      -> NoisyResult

plus point-level entry points (``compile_point``, ``run_noise_point``
and its batch form ``run_noise_points``) with default implementations in
terms of the two methods above, which is what the runner actually calls.
``compile_point`` scores each compile with the analytic EPS model once
and memoises the :class:`~repro.runner.records.StrategyResult` itself.
A backend may override ``run_noise_points`` to share work among chunks,
as long as every result equals its one-at-a-time answer.  Ported
executors (the trajectory engine), stored artifacts (the replay backend)
and independent simulators (the external-sim backend) all fit behind it;
see :mod:`repro.backends.registry` for how names map to instances.

Content-key rules live here too: :attr:`ExecutionBackend.content_name` is
the string folded into every point's cache key.  It defaults to the
registry name, so two different executors never share store entries — the
replay backend is the deliberate exception (it *serves* another backend's
entries, so it advertises that backend's content name).  For the keys to
stay unambiguous, any :attr:`ExecutionBackend.compiler_overrides` must be a
pure function of the backend class, never per-call state.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import TYPE_CHECKING, ClassVar, Hashable, Mapping

from repro.backends.registry import BackendError
from repro.compression.registry import get_strategy
from repro.metrics import eps
from repro.noise.result import NoisyResult
from repro.runner.records import StrategyResult, SweepPoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.circuits.circuit import QuantumCircuit
    from repro.compiler.result import CompiledCircuit
    from repro.noise.points import NoisePoint


class BackendContractError(BackendError, TypeError):
    """A backend returned a value that violates the execution contract."""


class ReplayMissError(BackendError, LookupError):
    """The replay backend was asked for a point the store has no result for."""


class LRUMemo:
    """A bounded least-recently-used memo.

    A hit moves its entry to the most-recent end; an insert that
    overflows the capacity evicts only the least recently used entry.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()

    def get(self, key: Hashable):
        """The entry under ``key`` (now the most recent), or ``None``."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value) -> None:
        """Store ``value`` as the most recent entry, evicting the oldest on overflow."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


#: Integer counter fields every :class:`NoisyResult` must carry with sane
#: values; checked by :func:`ensure_noisy_result` before results merge.
_RESULT_COUNTERS = (
    "shots", "no_error_shots", "gate_events", "idle_events", "outcome_successes",
)


def ensure_noisy_result(result: object, backend: str) -> NoisyResult:
    """Validate a backend's execute() return value against the contract.

    Malformed results surface here as a typed :class:`BackendContractError`
    naming the offending backend, instead of as an ``AttributeError`` deep
    inside :meth:`NoisyResult.from_chunks` or a silently wrong merge.
    """
    if not isinstance(result, NoisyResult):
        raise BackendContractError(
            f"backend {backend!r} returned {type(result).__name__!r} from "
            "execute(); the contract requires a repro.noise.result.NoisyResult"
        )
    for name in _RESULT_COUNTERS:
        value = getattr(result, name)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise BackendContractError(
                f"backend {backend!r} returned a NoisyResult with "
                f"{name}={value!r}; the contract requires a non-negative int"
            )
    for name in ("no_error_shots", "outcome_successes"):  # each counts a subset of shots
        value = getattr(result, name)
        if value > result.shots:
            raise BackendContractError(
                f"backend {backend!r} returned a NoisyResult with "
                f"{name}={value} > shots={result.shots}"
            )
    return result


class ExecutionBackend:
    """Base class every execution backend extends.

    Subclasses set :attr:`name`, implement :meth:`compile` and
    :meth:`execute`, and inherit point-level plumbing: per-process LRUs
    of compile results, so each point compiles once however many shot
    chunks it feeds, and of built source circuits, so the points of one
    circuit build it once; and contract validation of every execute()
    result.  The base methods refuse, so a backend that overrides neither
    (replay) answers only through its point-level entry points.
    """

    #: Registry name (``--backend`` value).
    name: ClassVar[str] = ""
    #: Name folded into point content keys.  Defaults to :attr:`name`; the
    #: replay backend overrides it to the backend whose artifacts it serves.
    content_name: ClassVar[str] = ""
    #: Compiler kwargs this backend forces (merged over the point's own).
    #: Must be a constant of the class — content keys depend on it only
    #: through :attr:`content_name`.
    compiler_overrides: ClassVar[Mapping[str, object]] = {}
    #: Whether ``execute(track_state=True)`` is supported.
    supports_track_state: ClassVar[bool] = False
    #: Whether this backend *reads* stored artifacts to answer points
    #: (replay).  The executor and the sweep service never dispatch such
    #: a point after their own store has missed it: they raise
    #: :class:`ReplayMissError` naming that store instead
    #: (:func:`repro.runner.cache.refuse_store_miss`).
    reads_store: ClassVar[bool] = False

    #: Compile results kept per process: enough for a default EPS
    #: validation sweep (36 cells) to compile each cell once.
    COMPILE_CAPACITY = 64
    #: Built source circuits kept per process: enough for every circuit of
    #: a default EPS validation (6) or compile sweep (4) to build once.
    SOURCE_CAPACITY = 8

    def __init__(self) -> None:
        #: :class:`StrategyResult` values by compile point.
        self.compiles = LRUMemo(self.COMPILE_CAPACITY)
        #: Logical circuits by circuit identity (see :meth:`source_circuit`).
        self.sources = LRUMemo(self.SOURCE_CAPACITY)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if not cls.content_name:
            cls.content_name = cls.name

    # ------------------------------------------------------------------
    # the contract
    # ------------------------------------------------------------------
    def compile(self, circuit, device, strategy, compiler_kwargs: dict | None = None,
                ) -> "CompiledCircuit":
        """Compile ``circuit`` for ``device`` under a strategy object."""
        raise BackendError(
            f"backend {self.name!r} cannot compile a live circuit; "
            "it answers declarative plan points only"
        )

    def execute(self, compiled: "CompiledCircuit", shots: int, seed: int, *,
                noise, base_shot: int = 0, track_state: bool = False) -> NoisyResult:
        """Run ``shots`` noisy trajectories of a compiled circuit."""
        raise BackendError(
            f"backend {self.name!r} cannot execute a compiled circuit; "
            "it answers declarative plan points only"
        )

    # ------------------------------------------------------------------
    # point-level entry points (what the runner dispatches to)
    # ------------------------------------------------------------------
    def source_circuit(self, point: "SweepPoint") -> "QuantumCircuit":
        """A copy of the logical circuit ``point`` describes, built once per circuit.

        Points that differ only in strategy, device or compiler flags share
        one build, keyed on the circuit's identity: benchmark, size, seed
        and QASM digest.  Each caller gets a copy of its own, which shares
        the build's basis lowering and interaction weights
        (:meth:`~repro.circuits.circuit.QuantumCircuit.derived`) but not
        its gate list.
        """
        qasm = point.qasm
        key = (point.benchmark, point.num_qubits, point.seed,
               None if qasm is None else hashlib.sha256(qasm.encode("utf-8")).hexdigest())
        circuit = self.sources.get(key)
        if circuit is None:
            circuit = point.build_circuit()
            self.sources.put(key, circuit)
        return circuit.copy()

    def compile_point(self, point: "SweepPoint") -> StrategyResult:
        """Compile and score one point; the :class:`SweepPoint` worker body.

        Compiles a :meth:`source_circuit` copy through :meth:`compile`,
        evaluates the analytic EPS once and memoises the result per point.
        The device is sized for the circuit the point builds, which some
        graph benchmarks round up from the point's size.
        """
        result = self.compiles.get(point)
        if result is None:
            kwargs = dict(point.compiler_kwargs)
            kwargs.update(self.compiler_overrides)
            circuit = self.source_circuit(point)
            compiled = self.compile(
                circuit,
                point.device.build(max(point.num_qubits, circuit.num_qubits)),
                get_strategy(point.strategy, **dict(point.strategy_kwargs)),
                compiler_kwargs=kwargs,
            )
            result = StrategyResult(
                benchmark=point.benchmark,
                num_qubits=point.num_qubits,
                strategy=point.strategy,
                report=eps.evaluate_eps(compiled),
                compiled=compiled,
            )
            self.compiles.put(point, result)
        return result

    def run_noise_point(self, point: "NoisePoint") -> NoisyResult:
        """Execute one chunk of noisy shots; the :class:`NoisePoint` worker body."""
        if point.track_state and not self.supports_track_state:
            raise BackendError(
                f"backend {self.name!r} cannot track the state vector; "
                "use the 'trajectory' backend for outcome-level metrics"
            )
        result = self.execute(
            self.compile_point(point.compile_point).compiled, point.shots, point.seed,
            noise=point.noise, base_shot=point.base_shot,
            track_state=point.track_state,
        )
        return ensure_noisy_result(result, self.name)

    def run_noise_points(self, points: "list[NoisePoint]") -> list[NoisyResult]:
        """Execute several chunks of noisy shots, each as :meth:`run_noise_point` would."""
        return [self.run_noise_point(point) for point in points]
