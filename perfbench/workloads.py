"""The benchmark's four workloads: seeded inputs, one timed run, output checks.

Each workload runs once per fresh child process (see ``child.py``), calls
the library in-process with ``workers=1``, and times only the user-visible
calls, as laps of a :class:`Clock`.  The checks, digests and
compile-quality figures are computed after the clock closes; a traced run
uninstalls its wrappers then, so no span covers checking work.

Every call into ``repro`` goes through a module attribute looked up at
call time (``validate.validate_eps``, ``spool.serve_once``...), so the
tracer's wrappers are the ones called.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pickle
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro import runner
from repro.analysis import verify_compiled
from repro.evaluation import validate
from repro.runner import CompileCache, DeviceSpec, StrategyResult, SweepPlan
from repro.service import spool
from repro.store import ArtifactStore

#: compile-sweep (and the store spool-replay serves): 2 x 2 x 5 = 20 points.
#: ``pp`` is left out: qft-20/pp alone compiles for longer than the rest.
SWEEP_BENCHMARKS = ("qft", "qaoa_random")
SWEEP_SIZES = (16, 20)
SWEEP_STRATEGIES = ("qubit_only", "fq", "eqm", "rb", "awe")

#: Shots per cell on the state-tracking validation run.
TRACKED_SHOTS = 1000

#: Times one spool-replay run submits, serves and redeems the sweep.  One
#: pass is about 0.3 s, too short to time steadily on a shared host.
REPLAY_RESUBMISSIONS = 5


class Clock:
    """Wall times of a run's laps, in order.

    ``after_lap`` is called after each lap, outside its time; the child
    process times the machine-speed probe there.
    """

    def __init__(self, after_lap: Callable[[], None] | None = None) -> None:
        self.laps: list[float] = []
        self.after_lap = after_lap

    @contextmanager
    def lap(self):
        """Time the body as the next lap."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.laps.append(time.perf_counter() - start)
            if self.after_lap is not None:
                self.after_lap()


@contextmanager
def clocked(tracer, after_lap: Callable[[], None] | None = None):
    """A :class:`Clock`; a tracer records spans only while it is open."""
    if tracer is not None:
        tracer.install()
    try:
        yield Clock(after_lap)
    finally:
        if tracer is not None:
            tracer.uninstall()


@dataclass
class Outcome:
    """What one workload run produced, measured and checked."""

    #: Distinct compile points the workload asks for.
    cells: int
    digest: str
    #: Compile-quality figures over the run's compiled circuits.
    quality: dict
    #: One line per failed output check; empty when the run is correct.
    failures: list[str]
    #: Wall time of each part of the run, in order: one part unless the
    #: workload is a sequence of independent calls.
    laps: list[float]

    @property
    def wall_s(self) -> float:
        return sum(self.laps)


def sweep_plan(seed: int) -> SweepPlan:
    """The compile-sweep plan for ``seed`` (also what spool-replay serves)."""
    return SweepPlan.cartesian(
        SWEEP_BENCHMARKS, SWEEP_SIZES, SWEEP_STRATEGIES,
        device=DeviceSpec(kind="grid"), seed=seed,
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fields(value) -> tuple:
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value))


def compile_digest(results: list[StrategyResult]) -> str:
    """Digest of every result's op stream and EPS report, in plan order.

    Built from the field values' ``repr``, so it pins what the compiler
    emitted, not how the objects happen to be shared or pickled.
    """
    digest = hashlib.sha256()
    for result in results:
        digest.update(repr((result.benchmark, result.num_qubits, result.strategy)).encode())
        digest.update(repr([_fields(op) for op in result.compiled.ops]).encode())
        digest.update(repr(_fields(result.report)).encode())
    return digest.hexdigest()


def quality(results: list[StrategyResult]) -> dict:
    """The paper's figures of merit summed or averaged over compiled circuits.

    ``eps_nlog10`` is the mean of ``-log10(EPS)``, i.e. ``-log10`` of the
    geometric-mean EPS: sweep EPS values span tens of decades, so the
    geometric mean itself would swing by whole factors between seeds.
    """
    reports = [result.report for result in results]
    return {
        "eps_nlog10": sum(-math.log10(r.total_eps) for r in reports) / len(reports),
        "comm_ops": sum(r.num_communication_ops for r in reports),
        "makespan_us": sum(r.makespan_ns for r in reports) / 1e3,
    }


def stored_compiles(store: ArtifactStore) -> list[StrategyResult]:
    """Every compile result in ``store``, in (benchmark, size, strategy) order."""
    results = []
    for path in store.iter_ref_paths():
        value = store.get_object(path.stem)
        if isinstance(value, StrategyResult):
            results.append(value)
    return sorted(results, key=lambda r: (r.benchmark, r.num_qubits, r.strategy))


def run_validate(seed: int, store: ArtifactStore, tracer=None, tracked: bool = False,
                 after_lap: Callable[[], None] | None = None, **overrides) -> Outcome:
    """``validate_eps`` at its defaults (event-only, or state-tracked at
    :data:`TRACKED_SHOTS`) into the fresh ``store``."""
    kwargs = {"shots": TRACKED_SHOTS, "track_state": True} if tracked else {}
    kwargs.update(overrides)
    cache = CompileCache.from_store(store)
    with clocked(tracer, after_lap) as clock, clock.lap():
        rows = validate.validate_eps(seed=seed, workers=1, cache=cache, **kwargs)
    compiles = stored_compiles(store)
    return Outcome(
        cells=len(rows),
        digest=_sha256(json.dumps([row.as_dict() for row in rows], sort_keys=True)),
        quality=quality(compiles),
        failures=check_validation(rows, expected_cells=len(compiles)),
        laps=clock.laps,
    )


#: Wilson-interval z under which a row that ``validate_eps`` marks
#: unvalidated still passes.  Its per-cell test uses a 95 % interval, so
#: at 1000 shots a low-EPS cell (qft-6 at EPS ~0.09) misses it on about
#: one seed in twenty by chance alone; at z = 4.5 a chance miss is rarer
#: than one in 10^5 per cell, while a wrong simulator still misses.
FAMILY_Z = 4.5


def _validates(row) -> bool:
    if row.validated:
        return True
    low, high = row.result.confidence_interval(z=FAMILY_Z)
    return low <= row.analytic_eps <= high


def check_validation(rows, expected_cells: int) -> list[str]:
    """Every cell is present and its analytic EPS validates.

    A row passes when ``validate_eps`` validated it, or when the analytic
    EPS lies in the simulated estimate's Wilson interval at
    :data:`FAMILY_Z` (a correction for testing 36 cells per run).
    """
    failures = [
        f"{row.benchmark}-{row.num_qubits}/{row.strategy}: simulated "
        f"{row.simulated_eps:.4f} does not validate analytic {row.analytic_eps:.4f}"
        for row in rows if not _validates(row)
    ]
    if len(rows) != expected_cells:
        failures.append(f"{len(rows)} rows for {expected_cells} compiled cells")
    return failures


def run_compile_sweep(seed: int, store: ArtifactStore, tracer=None,
                      plan: SweepPlan | None = None, verify: bool = True,
                      after_lap: Callable[[], None] | None = None) -> Outcome:
    """Compile the sweep plan once, cold, into the fresh ``store``.

    Points go through the executor one at a time, so each point's compile
    is a lap of its own.
    """
    plan = sweep_plan(seed) if plan is None else plan
    cache = CompileCache.from_store(store)
    results: list[StrategyResult] = []
    with clocked(tracer, after_lap) as clock:
        for point in plan:
            with clock.lap():
                results.extend(runner.execute_plan([point], workers=1, cache=cache))
    return Outcome(
        cells=len(plan),
        digest=compile_digest(results),
        quality=quality(results),
        failures=check_compiles(plan, results, verify),
        laps=clock.laps,
    )


def check_compiles(plan: SweepPlan, results: list[StrategyResult],
                   verify: bool = True) -> list[str]:
    """One result per point, each clean under the static program verifier.

    ``verify=False`` skips the verifier: runs whose digest equals a
    verified run's compiled the same programs.
    """
    failures = []
    if len(results) != len(plan):
        failures.append(f"{len(results)} results for {len(plan)} points")
    for point, result in zip(plan, results if verify else ()):
        report = verify_compiled(result.compiled)
        if not report.ok:
            failures.append(
                f"{point.benchmark}-{point.num_qubits}/{point.strategy}: "
                f"{len(report.errors)} verifier errors, first: {report.errors[0].describe()}"
            )
    return failures


def warm_store(seed: int, store: ArtifactStore, plan: SweepPlan | None = None) -> dict:
    """Compile the sweep into ``store`` (untimed); returns the cold blob digests.

    The digest of each stored blob is the SHA-256 of the pickled cold
    result, which spool-replay's redeemed results must reproduce byte for
    byte.
    """
    plan = sweep_plan(seed) if plan is None else plan
    runner.execute_plan(plan, workers=1, cache=CompileCache.from_store(store))
    return {"blobs": [store.get_ref(point.key())["blob"] for point in plan]}


def run_spool_replay(seed: int, store: ArtifactStore, spool_dir: Path, cold: dict,
                     tracer=None, plan: SweepPlan | None = None,
                     resubmissions: int = REPLAY_RESUBMISSIONS,
                     after_lap: Callable[[], None] | None = None) -> Outcome:
    """Submit the sweep to a fresh spool, serve it once, redeem the results.

    Repeated ``resubmissions`` times, each on a spool directory of its own
    and timed as a lap of its own; the first lap is the cold user call.
    Each lap's results are checked between laps and then dropped, so no
    lap carries the heap of the ones before it.
    """
    plan = sweep_plan(seed) if plan is None else plan
    failures: list[str] = []
    with clocked(tracer, after_lap) as clock:
        for index in range(resubmissions):
            with clock.lap():
                lap_dir = spool_dir / f"lap-{index}"
                spool.submit_job(lap_dir, plan)
                statuses = spool.serve_once(lap_dir, store, workers=1)
                results = spool.job_results(store, statuses[0]["manifest"])
            if tracer is not None:
                tracer.uninstall()
            failures += [f"lap {index}: {failure}"
                         for failure in check_replay(statuses, results, cold, len(plan))]
            if index == 0:
                digest, figures = compile_digest(results), quality(results)
            del results
            if tracer is not None:
                tracer.install()
    audit = store.verify()
    if not audit.ok:
        failures.append(f"store verify found {len(audit.issues)} issues: {audit.issues[:2]}")
    return Outcome(
        cells=len(plan),
        digest=digest,
        quality=figures,
        failures=failures,
        laps=clock.laps,
    )


def check_replay(statuses: list[dict], results: list, cold: dict, points: int) -> list[str]:
    """Zero executed, all hits, and results byte-equal to the cold ones."""
    failures = []
    status = statuses[0] if len(statuses) == 1 else {}
    if status.get("state") != "done":
        failures.append(f"expected one finished job, got {statuses!r}")
    if status.get("executed") != 0:
        failures.append(f"replay executed {status.get('executed')} points, expected 0")
    if status.get("cache_hits") != points:
        failures.append(f"{status.get('cache_hits')} cache hits, expected {points}")
    redeemed = [
        hashlib.sha256(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)).hexdigest()
        for result in results
    ]
    if redeemed != cold["blobs"]:
        failures.append("redeemed results are not byte-equal to the cold results")
    return failures


def run(name: str, seed: int, store: ArtifactStore, work: Path, tracer=None,
        cold: dict | None = None, verify: bool = True,
        after_lap: Callable[[], None] | None = None) -> Outcome:
    """Run workload ``name`` once; ``cold`` is spool-replay's warm record."""
    if name == "validate-eps":
        return run_validate(seed, store, tracer, after_lap=after_lap)
    if name == "validate-eps-tracked":
        return run_validate(seed, store, tracer, tracked=True, after_lap=after_lap)
    if name == "compile-sweep":
        return run_compile_sweep(seed, store, tracer, verify=verify, after_lap=after_lap)
    if name == "spool-replay":
        return run_spool_replay(seed, store, work / "spool", cold, tracer, after_lap=after_lap)
    raise KeyError(f"unknown workload {name!r}")
