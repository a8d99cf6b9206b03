"""Async sweep service: job queue, in-flight dedupe and the file spool.

The service tier turns the runner library into a serving system.  Many
clients submit :class:`~repro.runner.plan.SweepPlan` values — in-process
through :class:`SweepService`, or cross-process through the file spool
(:func:`submit_job` / :func:`serve_once`) — and all of them share one warm
:class:`~repro.store.ArtifactStore`: previously-published points are served
from the store, identical in-flight points are computed once regardless of
how many jobs ask for them, and every job leaves a schema-validated run
manifest behind for auditing.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".queue": ("BORROW_TIMEOUT_S", "JobStatus", "SweepService"),
    ".spool": ("SPOOL_SCHEMA_VERSION", "job_results", "load_job", "read_status", "serve_forever",
               "serve_once", "submit_job", "wait_for_job"),
})
