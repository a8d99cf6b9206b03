"""Async job queue over sweep plans, backed by the artifact store.

:class:`SweepService` is the in-process front end of
"compilation-and-simulation as a service": callers ``submit`` a
:class:`~repro.runner.plan.SweepPlan` (or any iterable of plan points) and
get back a job id they can poll with ``status`` and redeem with
``results``.  Jobs run on background threads; the CPU-bound point
executions inside a job still fan out over processes through
:class:`~repro.runner.executor.ParallelExecutor`.

Every point is resolved through exactly one of three paths, in order:

1. **store hit** — the point's content key already has a published result;
2. **in-flight dedupe** — another job (any submitter, any thread) is
   already executing a point with the same content key, so this job waits
   on that execution's future instead of recomputing it;
3. **execute** — this job claims the key, computes the result, publishes
   it to the store *and then* resolves the shared future, so borrowers
   always find the blob on disk.  A replay point never gets here: the job
   fails with ``ReplayMissError`` naming the service's store instead.

On completion each job writes one schema-validated run manifest to the
store recording the plan fingerprint, code fingerprint, per-point blob
refs and timings — the durable audit trail ``repro store verify`` checks.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import Literal

from repro.runner.cache import code_fingerprint, point_key, refuse_store_miss
from repro.runner.records import ensure_execution_point
from repro.store.artifacts import ArtifactStore
from repro.store.manifest import build_manifest, plan_fingerprint

#: Seconds a job waits on another job's in-flight execution before failing;
#: generous because a borrowed point may sit behind a whole owned batch.
BORROW_TIMEOUT_S = 600.0


@dataclass(frozen=True)
class JobStatus:
    """Snapshot of one submitted job's progress."""

    job_id: str
    state: Literal["queued", "running", "done", "failed"]
    total_points: int
    cache_hits: int = 0
    executed: int = 0
    deduped: int = 0
    manifest_id: str | None = None
    error: str | None = None
    seconds: float = 0.0

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def as_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "state": self.state,
            "total_points": self.total_points,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "deduped": self.deduped,
            "manifest": self.manifest_id,
            "error": self.error,
            "seconds": self.seconds,
        }


class _Job:
    """Internal mutable record for one submission."""

    def __init__(self, job_id: str, points: list, kind: str):
        self.points = points
        self.kind = kind
        self.status = JobStatus(job_id=job_id, state="queued", total_points=len(points))
        self.results: list = [None] * len(points)
        self.done = threading.Event()


class SweepService:
    """Submit/poll front end with cross-job in-flight dedupe.

    ``workers`` is the process fan-out used *within* each job's executed
    batch; jobs themselves run concurrently on daemon threads, so two
    submitters genuinely race — which is exactly what the in-flight dedupe
    map resolves.  Usable as a context manager; ``shutdown`` waits for
    running jobs.
    """

    def __init__(self, store: ArtifactStore, workers: int = 1):
        self.store = store
        self.workers = workers
        self._lock = threading.Lock()
        self._jobs: dict[str, _Job] = {}
        self._inflight: dict[str, Future] = {}
        self._threads: list[threading.Thread] = []
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def submit(self, plan, kind: str = "sweep") -> str:
        """Enqueue every point of ``plan``; returns the job id immediately.

        Every point must satisfy the
        :class:`~repro.runner.records.ExecutionPoint` protocol — validated
        here, at the boundary, so a malformed plan fails the submit call
        instead of a worker thread.
        """
        points = list(plan)
        for point in points:
            ensure_execution_point(point)
        with self._lock:
            job_id = f"job-{next(self._ids):06d}"
            job = _Job(job_id, points, kind)
            self._jobs[job_id] = job
        thread = threading.Thread(
            target=self._run_job, args=(job,), name=f"sweep-{job_id}", daemon=True
        )
        self._threads.append(thread)
        thread.start()
        return job_id

    def status(self, job_id: str) -> JobStatus:
        """Current snapshot for ``job_id`` (raises KeyError if unknown)."""
        with self._lock:
            return self._jobs[job_id].status

    def wait(self, job_id: str, timeout: float | None = None) -> JobStatus:
        """Block until the job finishes; returns the final status."""
        job = self._job(job_id)
        if not job.done.wait(timeout):
            raise TimeoutError(f"{job_id} still {job.status.state} after {timeout}s")
        return self.status(job_id)

    def results(self, job_id: str, timeout: float | None = None) -> list:
        """Plan-ordered results of a finished job (waits for completion).

        Raises the job's failure if it did not complete cleanly.
        """
        status = self.wait(job_id, timeout)
        if status.state == "failed":
            raise RuntimeError(f"{job_id} failed: {status.error}")
        return list(self._job(job_id).results)

    def job_ids(self) -> list[str]:
        """Every job id this service has accepted, in submission order."""
        with self._lock:
            return list(self._jobs)

    def shutdown(self, wait: bool = True) -> None:
        """Wait for all job threads to drain (jobs cannot be cancelled)."""
        if wait:
            for thread in self._threads:
                thread.join()

    def __enter__(self) -> "SweepService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _job(self, job_id: str) -> _Job:
        with self._lock:
            return self._jobs[job_id]

    def _update(self, job: _Job, **changes) -> None:
        with self._lock:
            job.status = replace(job.status, **changes)

    def _run_job(self, job: _Job) -> None:
        started = time.perf_counter()
        self._update(job, state="running")
        keys = [point_key(point) for point in job.points]
        owned: list[int] = []        # indices this job will execute
        borrowed: dict[int, Future] = {}
        owned_futures: dict[str, Future] = {}
        cache_hits = 0
        try:
            for index, (point, key) in enumerate(zip(job.points, keys)):
                cached = self.store.get_object(key)
                if cached is not None:
                    job.results[index] = cached
                    cache_hits += 1
                    continue
                with self._lock:
                    future = self._inflight.get(key)
                    if future is None:
                        refuse_store_miss(point, self.store.root)
                        future = Future()
                        self._inflight[key] = future
                        owned_futures[key] = future
                        owned.append(index)
                    else:
                        borrowed[index] = future
            self._update(job, cache_hits=cache_hits)
            computed = []
            if owned:
                # imported here, and only for a job with points to run, so
                # the spool and warm serving stay free of the worker and its
                # default backend
                from repro.runner.executor import execute_plan

                computed = execute_plan(
                    [job.points[index] for index in owned], workers=self.workers
                )
            for index, result in zip(owned, computed):
                # publish before resolving: a borrower woken by the
                # future must find the blob already installed
                self.store.put_object(
                    keys[index], result, payload=job.points[index].payload()
                )
                job.results[index] = result
                self._resolve(keys[index], owned_futures, result=result)
            for index, future in borrowed.items():
                job.results[index] = future.result(timeout=BORROW_TIMEOUT_S)
            manifest = self._write_manifest(
                job, keys, owned, borrowed, cache_hits,
                time.perf_counter() - started,
            )
            self._update(
                job, state="done", executed=len(owned), deduped=len(borrowed),
                manifest_id=manifest["manifest_id"],
                seconds=time.perf_counter() - started,
            )
        except BaseException as error:  # noqa: BLE001 - job boundary
            # release every slot this job claimed but never resolved, so
            # borrowers see the failure instead of waiting out their timeout
            for key in list(owned_futures):
                self._resolve(key, owned_futures, error=error)
            self._update(
                job, state="failed", error=f"{type(error).__name__}: {error}",
                executed=len(owned), deduped=len(borrowed),
                seconds=time.perf_counter() - started,
            )
        finally:
            job.done.set()

    def _resolve(self, key: str, owned_futures: dict[str, Future], result=None, error=None) -> None:
        """Hand the in-flight slot's outcome to borrowers and release it."""
        future = owned_futures.pop(key, None)
        if future is None:
            return
        with self._lock:
            if self._inflight.get(key) is future:
                del self._inflight[key]
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)

    def _write_manifest(
        self,
        job: _Job,
        keys: list[str],
        owned: list[int],
        borrowed: dict[int, Future],
        cache_hits: int,
        total_seconds: float,
    ) -> dict:
        owned_set = set(owned)
        entries = []
        for index, key in enumerate(keys):
            ref = self.store.get_ref(key)
            if ref is None:
                # the point was published or found above, so its ref went
                # missing mid-job: fail the job rather than record no blob
                raise LookupError(f"no stored ref for point key {key}")
            entry = {
                "key": key,
                "blob": ref["blob"],
                "cached": index not in owned_set and index not in borrowed,
            }
            if index in borrowed:
                entry["deduped"] = True
            entries.append(entry)
        manifest = build_manifest(
            kind=job.kind,
            plan_fp=plan_fingerprint(keys),
            code_fp=code_fingerprint(),
            points=entries,
            total_seconds=total_seconds,
            executed=len(owned),
            cache_hits=cache_hits,
            deduped=len(borrowed),
        )
        self.store.write_manifest(manifest)
        return manifest
