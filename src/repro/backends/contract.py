"""The execution-backend contract: what every result source must provide.

A *backend* is one way of turning declarative plan points into results.
The contract is deliberately small — two methods::

    compile(circuit, device, strategy) -> CompiledHandle
    execute(handle, shots, seed)       -> NoisyResult

plus two point-level entry points (``run_compile_point`` /
``run_noise_point``) with default implementations in terms of the two
methods above, which is what the runner actually calls.  Ported executors
(the trajectory engine), stored artifacts (the replay backend) and
independent simulators (the external-sim backend) all fit behind it; see
:mod:`repro.backends.registry` for how names map to instances.

Content-key rules live here too: :attr:`ExecutionBackend.content_name` is
the string folded into every point's cache key.  It defaults to the
registry name, so two different executors never share store entries — the
replay backend is the deliberate exception (it *serves* another backend's
entries, so it advertises that backend's content name).  For the keys to
stay unambiguous, any :attr:`ExecutionBackend.compiler_overrides` must be a
pure function of the backend class, never per-call state.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Hashable, Mapping

from repro.backends.registry import BackendError
from repro.compression.registry import get_strategy
from repro.noise.result import NoisyResult
from repro.runner.records import StrategyResult, SweepPoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.compiler.result import CompiledCircuit
    from repro.metrics.eps import EPSReport
    from repro.noise.points import NoisePoint


class BackendContractError(BackendError, TypeError):
    """A backend returned a value that violates the execution contract."""


class ReplayMissError(BackendError, LookupError):
    """The replay backend was asked for a point the store has no result for."""


@dataclass(frozen=True)
class CompiledHandle:
    """What a backend's ``compile`` hands back for later ``execute`` calls.

    ``compiled`` and ``report`` are the shared currency every backend can
    produce; ``qasm`` carries the round-tripped physical program for
    backends (external-sim) that re-import rather than share the in-memory
    circuit.
    """

    backend: str
    compiled: "CompiledCircuit"
    report: "EPSReport"
    qasm: str | None = None


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
    :meth:`execute`, and inherit point-level plumbing: a per-process
    LRU of compiled handles, so each point compiles once however many
    shot chunks it feeds, and contract validation of every execute()
    result.
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

    #: Compiled handles kept per process: enough for a default EPS
    #: validation sweep (36 cells) to compile each cell once.
    HANDLE_CAPACITY = 64

    def __init__(self) -> None:
        #: Compiled handles by compile point.
        self.handles = LRUMemo(self.HANDLE_CAPACITY)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if not cls.content_name:
            cls.content_name = cls.name

    # ------------------------------------------------------------------
    # the contract
    # ------------------------------------------------------------------
    def compile(self, circuit, device, strategy, compiler_kwargs: dict | None = None,
                ) -> CompiledHandle:
        """Compile ``circuit`` for ``device`` under a strategy object."""
        raise NotImplementedError

    def execute(self, handle: CompiledHandle, shots: int, seed: int, *,
                noise, base_shot: int = 0, track_state: bool = False) -> NoisyResult:
        """Run ``shots`` noisy trajectories of a compiled handle."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # point-level entry points (what the runner dispatches to)
    # ------------------------------------------------------------------
    def compile_point(self, point: "SweepPoint") -> CompiledHandle:
        """Compile one declarative point through :meth:`compile` (memoised)."""
        handle = self.handles.get(point)
        if handle is None:
            circuit = point.build_circuit()
            device = point.device.build(point.num_qubits)
            strategy = get_strategy(point.strategy, **dict(point.strategy_kwargs))
            kwargs = dict(point.compiler_kwargs)
            kwargs.update(self.compiler_overrides)
            handle = self.compile(circuit, device, strategy, compiler_kwargs=kwargs)
            self.handles.put(point, handle)
        return handle

    def run_compile_point(self, point: "SweepPoint") -> "StrategyResult":
        """Execute one compile point; the :class:`SweepPoint` worker body."""
        handle = self.compile_point(point)
        return StrategyResult(
            benchmark=point.benchmark,
            num_qubits=point.num_qubits,
            strategy=point.strategy,
            report=handle.report,
            compiled=handle.compiled,
        )

    def run_noise_point(self, point: "NoisePoint") -> NoisyResult:
        """Execute one chunk of noisy shots; the :class:`NoisePoint` worker body."""
        if point.track_state and not self.supports_track_state:
            raise BackendError(
                f"backend {self.name!r} cannot track the state vector; "
                "use the 'trajectory' backend for outcome-level metrics"
            )
        handle = self.compile_point(point.compile_point)
        result = self.execute(
            handle, point.shots, point.seed,
            noise=point.noise, base_shot=point.base_shot,
            track_state=point.track_state,
        )
        return ensure_noisy_result(result, self.name)
