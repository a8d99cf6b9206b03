"""File-based job spool: submit sweeps from one process, serve from another.

The spool is the cross-process transport for the sweep service.  It needs
no sockets or broker — just a directory, which composes with the artifact
store's own "safe under concurrent writers via atomic rename" discipline:

``<spool>/jobs/<job_id>.json``
    A submitted job: the full reconstruction specs
    (:meth:`~repro.runner.records.SweepPoint.spec`) of every point, in plan
    order.  Written atomically by :func:`submit_job`.

``<spool>/running/<job_id>.json``
    A claimed job.  Servers claim with ``os.replace`` — an atomic move, so
    exactly one of any number of competing servers wins a job.

``<spool>/status/<job_id>.json``
    The job's current status document (``running``, then ``done`` /
    ``failed`` with counts and the manifest id).  Submitters poll this
    file; results themselves are redeemed from the artifact store via the
    manifest's blob refs.

``serve_once`` drains the current backlog through one
:class:`~repro.service.queue.SweepService` — so identical in-flight points
across *different* spool jobs are deduplicated exactly like in-process
submissions — and returns the final statuses.  ``serve_forever`` wraps it
in a poll loop.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from pathlib import Path

from repro.runner.plan import SweepPlan
from repro.runner.records import SweepPoint
from repro.service.queue import JobStatus, SweepService
from repro.store.artifacts import ArtifactStore, atomic_write_bytes

#: Bump when the job / status document layout changes incompatibly.
SPOOL_SCHEMA_VERSION = 1


def _spool_dirs(root: Path | str) -> tuple[Path, Path, Path]:
    root = Path(root)
    jobs = root / "jobs"
    running = root / "running"
    status = root / "status"
    for directory in (jobs, running, status):
        directory.mkdir(parents=True, exist_ok=True)
    return jobs, running, status


def _atomic_write_json(path: Path, document: dict) -> None:
    text = json.dumps(document, sort_keys=True, indent=2) + "\n"
    atomic_write_bytes(path, text.encode("utf-8"))


def submit_job(spool: Path | str, plan: SweepPlan, kind: str = "sweep") -> str:
    """Drop ``plan`` into the spool; returns the new job id.

    The id digests the point specs plus submission time and pid, so
    resubmitting the same plan yields a distinct job (which the server will
    then serve entirely from the store).
    """
    jobs, _, _ = _spool_dirs(spool)
    specs = [point.spec() for point in plan]
    seed = json.dumps(specs, sort_keys=True) + f":{time.time_ns()}:{os.getpid()}"
    job_id = hashlib.sha256(seed.encode("utf-8")).hexdigest()[:12]
    _atomic_write_json(jobs / f"{job_id}.json", {
        "schema": SPOOL_SCHEMA_VERSION,
        "job_id": job_id,
        "kind": kind,
        "submitted_unix": time.time(),
        "points": specs,
    })
    return job_id


def load_job(path: Path) -> tuple[str, str, SweepPlan]:
    """Parse one job file into ``(job_id, kind, plan)``."""
    document = json.loads(Path(path).read_text())
    plan = SweepPlan(tuple(SweepPoint.from_spec(spec) for spec in document["points"]))
    return document["job_id"], document.get("kind", "sweep"), plan


def read_status(spool: Path | str, job_id: str) -> dict | None:
    """The job's status document, or None if the server has not seen it."""
    _, _, status = _spool_dirs(spool)
    path = status / f"{job_id}.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def wait_for_job(
    spool: Path | str, job_id: str, timeout: float = 300.0, poll: float = 0.2
) -> dict:
    """Poll the status file until the job finishes; returns the final document."""
    deadline = time.monotonic() + timeout
    while True:
        document = read_status(spool, job_id)
        if document is not None and document.get("state") in ("done", "failed"):
            return document
        if time.monotonic() >= deadline:
            state = document.get("state") if document else "unclaimed"
            raise TimeoutError(f"job {job_id} still {state} after {timeout}s")
        time.sleep(poll)


def job_results(store: ArtifactStore, manifest_id: str) -> list:
    """Redeem a finished job's plan-ordered results from its manifest."""
    manifest = store.read_manifest(manifest_id)
    results = []
    for index, point in enumerate(manifest["points"]):
        data = store.get_blob(point["blob"])
        if data is None:
            raise FileNotFoundError(
                f"manifest {manifest_id} points[{index}] blob {point['blob']} "
                "is missing or corrupt (was the store gc'd with the manifest removed?)"
            )
        results.append(pickle.loads(data))
    return results


def serve_once(
    spool: Path | str,
    store: ArtifactStore,
    workers: int = 1,
) -> list[dict]:
    """Claim and run every pending job; returns their final status documents.

    All claimed jobs run through one :class:`SweepService`, so identical
    points submitted by different clients execute once.  Safe to run from
    several server processes at once: the atomic claim step partitions the
    backlog between them.  A job file that cannot be loaded fails alone:
    it gets a ``failed`` status (job id = file stem) and leaves
    ``running/``, and the rest of the backlog is still served.
    """
    jobs_dir, running_dir, status_dir = _spool_dirs(spool)
    claimed: list[Path] = []
    for path in sorted(jobs_dir.glob("*.json")):
        target = running_dir / path.name
        try:
            os.replace(path, target)
        except FileNotFoundError:
            continue  # another server won this job
        claimed.append(target)
    if not claimed:
        return []
    statuses: list[dict] = []
    with SweepService(store, workers=workers) as service:
        submitted: list[tuple[str, str, Path]] = []
        for path in claimed:
            try:
                spool_job_id, kind, plan = load_job(path)
            except Exception as error:  # noqa: BLE001 - one bad file fails alone
                failed = JobStatus(path.stem, "failed", total_points=0,
                                   error=f"{type(error).__name__}: {error}")
                document = {"schema": SPOOL_SCHEMA_VERSION, **failed.as_dict()}
                _atomic_write_json(status_dir / f"{path.stem}.json", document)
                path.unlink(missing_ok=True)
                statuses.append(document)
                continue
            service_job_id = service.submit(plan, kind=kind)
            _atomic_write_json(status_dir / f"{spool_job_id}.json", {
                "schema": SPOOL_SCHEMA_VERSION, "job_id": spool_job_id,
                "state": "running",
            })
            submitted.append((spool_job_id, service_job_id, path))
        for spool_job_id, service_job_id, path in submitted:
            final = service.wait(service_job_id)
            document = {"schema": SPOOL_SCHEMA_VERSION, **final.as_dict(),
                        "job_id": spool_job_id}
            _atomic_write_json(status_dir / f"{spool_job_id}.json", document)
            path.unlink(missing_ok=True)
            statuses.append(document)
    return statuses


def serve_forever(
    spool: Path | str,
    store: ArtifactStore,
    workers: int = 1,
    poll_interval: float = 1.0,
    max_cycles: int | None = None,
) -> int:
    """Poll the spool and serve until interrupted; returns jobs served.

    ``max_cycles`` bounds the number of poll iterations (for tests and
    supervised deployments); ``None`` loops until KeyboardInterrupt.
    """
    served = 0
    cycles = 0
    try:
        while max_cycles is None or cycles < max_cycles:
            cycles += 1
            statuses = serve_once(spool, store, workers=workers)
            served += len(statuses)
            if not statuses:
                time.sleep(poll_interval)
    except KeyboardInterrupt:
        pass
    return served
