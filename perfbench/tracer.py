"""In-memory span tracer that instruments ``repro`` from the outside.

The benchmark measures layers without touching ``src/repro``: a traced
child process calls :meth:`Tracer.install`, which replaces each layer's
public callable *at the name where callers look it up* (a module global
such as ``repro.runner.points.build_benchmark``, or a class attribute such
as ``Router.run``) with a wrapper that records one span per call.  Spans
stay in memory as ``(name, start, end, parent, thread, attrs)`` records;
:meth:`Tracer.uninstall` restores every original and
:func:`layer_metrics` folds the spans into the ``layer.metric`` values the
benchmark reports.

Two hot helpers (``CostModel.swap_cost`` and ``shortest_slot_path``) run
hundreds of thousands of times per sweep, so they get a call counter
instead of a span.

Self time is attributed across threads: at every instant the wall time
goes to the most recently opened span that is still open.  In one thread
that is the innermost span; when a caller blocks in
``SweepService.wait`` while the service's job thread works, the job
thread's spans (opened later) take the time and the wait keeps only the
gaps.  The self times therefore add up to the wall time the spans cover,
and ``unattributed_s`` is the rest of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import pickle
import threading
import time
from collections import Counter
from pathlib import Path

#: (owner, attribute, span name).  ``owner`` is a module path, or
#: ``module:Class`` for a method; properties are traced through their getter.
SPAN_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.runner.points", "build_benchmark", "workloads.build"),
    ("repro.compiler.pipeline", "decompose_to_basis", "circuits.decompose"),
    ("repro.compiler.pipeline", "initial_mapping", "compiler.mapping"),
    ("repro.compiler.routing:Router", "run", "compiler.routing"),
    ("repro.compiler.pipeline", "schedule_ops", "compiler.scheduling"),
    ("repro.compiler.pipeline:QompressCompiler", "compile", "compiler.compile"),
    ("repro.metrics.eps", "evaluate_eps", "metrics.eps"),
    ("repro.noise.model:NoiseModel", "analytic_total_eps", "noise.analytic_eps"),
    ("repro.backends.contract:ExecutionBackend", "compile_point", "backends.compile_point"),
    ("repro.noise.trajectory:TrajectoryEngine", "__init__", "noise.engine_build"),
    ("repro.noise.trajectory:TrajectoryEngine", "run", "noise.trajectory"),
    ("repro.noise.trajectory", "compile_schedule", "noise.kernel_build"),
    ("repro.noise.trajectory", "build_event_kernel", "noise.kernel_build"),
    ("repro.noise.trajectory", "uniform_streams", "noise.rng"),
    ("repro.noise.rng:GeneratorLanes", "__init__", "noise.rng"),
    ("repro.noise.rng:GeneratorLanes", "random_block", "noise.rng_draw"),
    ("repro.noise.rng:GeneratorLanes", "random", "noise.rng_draw"),
    ("repro.noise.rng:GeneratorLanes", "integers", "noise.rng_draw"),
    ("repro.noise.kernel:KernelSchedule", "execute_run", "noise.kernel_exec"),
    ("repro.noise.kernel:KernelSchedule", "execute_run_unitaries", "noise.kernel_exec"),
    ("repro.noise.kernel:EventKernel", "count_block", "noise.kernel_exec"),
    ("repro.runner.cache", "point_key", "runner.point_key"),
    ("repro.service.queue", "point_key", "runner.point_key"),
    ("repro.runner.cache", "code_fingerprint", "runner.code_fingerprint"),
    ("repro.service.queue", "code_fingerprint", "runner.code_fingerprint"),
    ("repro.runner.executor:ParallelExecutor", "run", "runner.executor"),
    ("repro.store.artifacts:ArtifactStore", "get_object", "store.get_object"),
    ("repro.store.artifacts:ArtifactStore", "get_blob", "store.get_blob"),
    ("repro.store.artifacts:ArtifactStore", "get_ref", "store.get_ref"),
    ("repro.store.artifacts:ArtifactStore", "put_object", "store.put_object"),
    ("repro.store.artifacts:ArtifactStore", "put_blob", "store.put_blob"),
    ("repro.store.artifacts:ArtifactStore", "put_ref", "store.put_ref"),
    ("repro.store.artifacts:ArtifactStore", "read_manifest", "store.manifest"),
    ("repro.store.artifacts:ArtifactStore", "write_manifest", "store.manifest"),
    ("repro.service.queue:SweepService", "submit", "service.submit"),
    ("repro.service.queue:SweepService", "wait", "service.wait"),
    ("repro.service.spool", "submit_job", "spool.submit"),
    ("repro.service.spool", "load_job", "spool.load"),
    ("repro.service.spool", "job_results", "spool.redeem"),
    ("repro.evaluation.validate", "validate_eps", "evaluation.validate_eps"),
)

#: Public methods of the batched state, traced as the simulation layer.
BATCHED_STATE = "repro.simulation.batched:BatchedMixedRadixState"

#: Modules whose ``pickle`` global is swapped for a timed proxy.
PICKLE_USERS = ("repro.store.artifacts", "repro.service.spool")

#: (owner, attribute, counter name): counted, not spanned.
COUNT_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.compiler.costs:CostModel", "swap_cost", "compiler.swap_cost"),
    ("repro.compiler.costs:CostModel", "shortest_slot_path", "compiler.slot_path"),
)

#: Per-layer time metrics: metric -> span names whose self times it sums.
TIME_METRICS: dict[str, tuple[str, ...]] = {
    "workloads.build_s": ("workloads.build",),
    "circuits.decompose_s": ("circuits.decompose",),
    "compression.plan_s": ("compression.plan",),
    "compiler.mapping_s": ("compiler.mapping",),
    "compiler.routing_s": ("compiler.routing",),
    "compiler.scheduling_s": ("compiler.scheduling",),
    "compiler.compile_s": ("compiler.compile",),
    "metrics.eps_s": ("metrics.eps",),
    "noise.analytic_eps_s": ("noise.analytic_eps",),
    "noise.engine_build_s": ("noise.engine_build",),
    "noise.kernel_build_s": ("noise.kernel_build",),
    "noise.rng_s": ("noise.rng", "noise.rng_draw"),
    "noise.kernel_exec_s": ("noise.kernel_exec",),
    "noise.trajectory_self_s": ("noise.trajectory",),
    "simulation.batched_s": ("simulation.batched",),
    "runner.point_key_s": ("runner.point_key",),
    "runner.code_fingerprint_s": ("runner.code_fingerprint",),
    "runner.executor_self_s": ("runner.executor",),
    "store.get_s": ("store.get_object", "store.get_blob", "store.get_ref"),
    "store.put_s": ("store.put_object", "store.put_blob", "store.put_ref"),
    "store.unpickle_s": ("pickle.loads",),
    "store.pickle_s": ("pickle.dumps",),
    "store.manifest_s": ("store.manifest",),
    "service.queue_wait_s": ("service.wait",),
    "spool.submit_s": ("spool.submit",),
    "spool.load_s": ("spool.load",),
    "spool.redeem_s": ("spool.redeem",),
    "evaluation.self_s": ("evaluation.validate_eps",),
}

#: Per-layer counts: metric -> span name whose calls it counts.
CALL_METRICS: dict[str, str] = {
    "compression.plan_calls": "compression.plan",
    "compiler.compile_calls": "compiler.compile",
    "backends.compile_point_calls": "backends.compile_point",
    "noise.engine_builds": "noise.engine_build",
    "runner.point_key_calls": "runner.point_key",
}

#: Every per-layer metric with its unit, in report order.
LAYER_METRICS: dict[str, str] = {
    "setup.import_s": "s",
    "setup.import_pulses_s": "s",
    "workloads.build_s": "s",
    "circuits.decompose_s": "s",
    "compression.plan_s": "s",
    "compression.plan_calls": "count",
    "compiler.mapping_s": "s",
    "compiler.routing_s": "s",
    "compiler.scheduling_s": "s",
    "compiler.compile_s": "s",
    "compiler.compile_calls": "count",
    "compiler.swap_cost_calls": "count",
    "compiler.slot_path_calls": "count",
    "metrics.eps_s": "s",
    "noise.analytic_eps_s": "s",
    "backends.compile_point_calls": "count",
    "backends.compiles_per_cell": "ratio",
    "noise.engine_builds": "count",
    "noise.engine_build_s": "s",
    "noise.kernel_build_s": "s",
    "noise.rng_s": "s",
    "noise.rng_draws": "count",
    "noise.kernel_exec_s": "s",
    "noise.trajectory_self_s": "s",
    "simulation.batched_s": "s",
    "runner.point_key_calls": "count",
    "runner.point_key_s": "s",
    "runner.code_fingerprint_s": "s",
    "runner.executor_self_s": "s",
    "store.get_calls": "count",
    "store.hits": "count",
    "store.put_calls": "count",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.unpickle_s": "s",
    "store.pickle_s": "s",
    "store.bytes_read": "bytes",
    "store.bytes_written": "bytes",
    "store.manifest_s": "s",
    "service.job_s": "s",
    "service.queue_wait_s": "s",
    "service.executed": "count",
    "service.cache_hits": "count",
    "spool.submit_s": "s",
    "spool.load_s": "s",
    "spool.redeem_s": "s",
    "evaluation.self_s": "s",
    "unattributed_s": "s",
    "trace.overhead_s": "s",
}


_INHERITED = object()


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _blob_attrs(args, result) -> dict:
    return {"hit": result is not None, "bytes": len(result) if result is not None else 0}


#: Extra per-span attributes, computed from ``(args, result)``.
ATTRS = {
    # every GeneratorLanes draw method returns one value per draw
    "noise.rng_draw": lambda args, result: {"draws": int(result.size)},
    "store.get_object": lambda args, result: {"hit": result is not None},
    "store.get_blob": _blob_attrs,
    "store.put_blob": lambda args, result: {"bytes": len(args[1])},
    "service.wait": lambda args, result: {
        "executed": result.executed, "cache_hits": result.cache_hits,
        "seconds": result.seconds,
    },
}


class _PickleProxy:
    """Stands in for the ``pickle`` module inside one traced module."""

    def __init__(self, tracer: "Tracer") -> None:
        self.loads = tracer.wrap(pickle.loads, "pickle.loads")
        self.dumps = tracer.wrap(pickle.dumps, "pickle.dumps")

    def __getattr__(self, name: str):
        return getattr(pickle, name)


class Tracer:
    """Spans and counters for one traced run, kept in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: ``[name, start, end, parent, thread, attrs]`` per call.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        """``fn`` wrapped to record one span named ``name`` per call."""
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            record = [name, 0.0, 0.0, stack[-1] if stack else None,
                      threading.get_ident(), None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                record[5] = attrs(args, result)
            return result

        return traced

    def count(self, fn, name: str):
        """``fn`` wrapped to bump counter ``name`` per call."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- instrumentation ---------------------------------------------------
    def _patch(self, owner, attribute: str, replacement) -> None:
        # an inherited attribute is restored by deleting the override
        self._undo.append((owner, attribute, vars(owner).get(attribute, _INHERITED)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Swap every traced callable for its recording wrapper."""
        from repro.compression import _STRATEGIES

        for owner_path, attribute, name in SPAN_TARGETS:
            owner = _resolve(owner_path)
            self._patch(owner, attribute, self.wrap(getattr(owner, attribute), name))
        for strategy in dict.fromkeys(_STRATEGIES.values()):
            self._patch(strategy, "plan", self.wrap(strategy.plan, "compression.plan"))
        state = _resolve(BATCHED_STATE)
        for attribute, value in list(vars(state).items()):
            if attribute.startswith("_") and attribute != "__init__":
                continue
            if isinstance(value, property):
                traced = property(self.wrap(value.fget, "simulation.batched"))
                self._patch(state, attribute, traced)
            elif callable(value):
                self._patch(state, attribute, self.wrap(value, "simulation.batched"))
        for module_path in PICKLE_USERS:
            self._patch(_resolve(module_path), "pickle", _PickleProxy(self))
        for owner_path, attribute, name in COUNT_TARGETS:
            owner = _resolve(owner_path)
            self._patch(owner, attribute, self.count(getattr(owner, attribute), name))

    def uninstall(self) -> None:
        """Restore every original callable, newest patch first."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- output ------------------------------------------------------------
    def chrome_trace(self, origin: float) -> dict:
        """Chrome trace-event document (open it in Perfetto)."""
        events = []
        for name, start, end, parent, thread, attrs in self.spans:
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "pid": self.run_id, "tid": thread,
                "args": {"parent": parent, **(attrs or {})},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, directory: Path, origin: float, metrics: dict) -> None:
        """Write the per-layer JSON and the Chrome trace for this run."""
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{self.run_id}.layers.json").write_text(
            json.dumps({"run_id": self.run_id, "metrics": metrics}, indent=2, sort_keys=True)
        )
        (directory / f"{self.run_id}.trace.json").write_text(
            json.dumps(self.chrome_trace(origin))
        )


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span (see the module docstring for threads)."""
    events = []
    for index, span in enumerate(spans):
        events.append((span[1], 1, index))
        events.append((span[2], 0, index))
    events.sort()
    own = [0.0] * len(spans)
    open_spans: set[int] = set()
    last = 0.0
    for moment, opening, index in events:
        if open_spans:
            owner = max(open_spans, key=lambda i: (spans[i][1], i))
            own[owner] += moment - last
        last = moment
        if opening:
            open_spans.add(index)
        else:
            open_spans.discard(index)
    return own


def layer_metrics(tracer: Tracer, wall_s: float, cells: int) -> dict[str, float]:
    """Fold one traced run's spans into per-layer metric values.

    ``wall_s`` is the run's timed wall time and ``cells`` the number of
    distinct compile points the workload asks for (the base of
    ``backends.compiles_per_cell``).  The ``setup.*`` and
    ``trace.overhead_s`` metrics are measured elsewhere.
    """
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, float] = Counter()
    calls: Counter = Counter()
    for span, seconds in zip(spans, own):
        by_name[span[0]] += seconds
        calls[span[0]] += 1
    metrics: dict[str, float] = {
        metric: sum(by_name[name] for name in names)
        for metric, names in TIME_METRICS.items()
    }
    metrics.update({metric: calls[name] for metric, name in CALL_METRICS.items()})
    metrics["compiler.swap_cost_calls"] = tracer.counts["compiler.swap_cost"]
    metrics["compiler.slot_path_calls"] = tracer.counts["compiler.slot_path"]
    metrics["backends.compiles_per_cell"] = (
        calls["compiler.compile"] / cells if cells else 0.0
    )

    def parent_name(span) -> str | None:
        return spans[span[3]][0] if span[3] is not None else None

    def attr(span, key, default=0):
        return (span[5] or {}).get(key, default)

    reads = [s for s in spans if s[0] == "store.get_object"
             or (s[0] == "store.get_blob" and parent_name(s) != "store.get_object")]
    writes = [s for s in spans if s[0] == "store.put_object"
              or (s[0] == "store.put_blob" and parent_name(s) != "store.put_object")]
    waits = [s for s in spans if s[0] == "service.wait"]
    metrics.update({
        "noise.rng_draws": sum(attr(s, "draws") for s in spans if s[0] == "noise.rng_draw"),
        "store.get_calls": len(reads),
        "store.hits": sum(1 for s in reads if attr(s, "hit", False)),
        "store.put_calls": len(writes),
        "store.bytes_read": sum(attr(s, "bytes") for s in spans if s[0] == "store.get_blob"),
        "store.bytes_written": sum(attr(s, "bytes") for s in spans if s[0] == "store.put_blob"),
        "service.job_s": sum(attr(s, "seconds", 0.0) for s in waits),
        "service.executed": sum(attr(s, "executed") for s in waits),
        "service.cache_hits": sum(attr(s, "cache_hits") for s in waits),
        "unattributed_s": wall_s - sum(own),
    })
    return metrics
