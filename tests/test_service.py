"""Tests for the async sweep service: job queue, dedupe and the file spool."""

import threading
from dataclasses import dataclass

import pytest

from repro.runner import SweepPlan, execute_plan, point_key
from repro.service import (
    SweepService,
    job_results,
    read_status,
    serve_forever,
    serve_once,
    submit_job,
    wait_for_job,
)
from repro.store import ArtifactStore, wait_for

PLAN = SweepPlan.cartesian(("bv",), (4,), ("qubit_only", "eqm"))

#: Cross-thread fixtures for the slow-point dedupe tests (reset per test).
_EXECUTIONS: list[str] = []
_STARTED = threading.Event()
_RELEASE = threading.Event()


@dataclass(frozen=True)
class SlowPoint:
    """Plan point whose execution blocks until the test releases it."""

    name: str

    def payload(self) -> dict:
        return {"kind": "slow", "name": self.name}

    def key(self) -> str:
        return point_key(self)

    def execute(self) -> dict:
        _EXECUTIONS.append(self.name)
        _STARTED.set()
        assert _RELEASE.wait(timeout=30), "test never released the slow points"
        return {"name": self.name}


@dataclass(frozen=True)
class FailingPoint:
    """Plan point that always raises."""

    name: str = "doomed"

    def payload(self) -> dict:
        return {"kind": "failing", "name": self.name}

    def key(self) -> str:
        return point_key(self)

    def execute(self):
        raise RuntimeError("injected point failure")


@pytest.fixture(autouse=True)
def _reset_slow_point_state():
    _EXECUTIONS.clear()
    _STARTED.clear()
    _RELEASE.clear()
    yield
    _RELEASE.set()  # never leave a job thread blocked


class TestSweepService:
    def test_job_lifecycle_and_plan_ordered_results(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with SweepService(store, workers=2) as service:
            job_id = service.submit(PLAN)
            results = service.results(job_id, timeout=120)
            status = service.status(job_id)
        assert status.state == "done"
        assert status.finished
        assert (status.executed, status.cache_hits, status.deduped) == (2, 0, 0)
        reference = execute_plan(PLAN)
        assert [r.report for r in results] == [r.report for r in reference]
        assert [r.strategy for r in results] == ["qubit_only", "eqm"]

    def test_second_submission_is_served_entirely_from_the_store(self, tmp_path):
        # Acceptance criterion: a sweep executed twice through the service
        # hits the store on the second run — 0 compiles.
        store = ArtifactStore(tmp_path)
        with SweepService(store) as service:
            first = service.results(service.submit(PLAN), timeout=120)
            warm_id = service.submit(PLAN)
            second = service.results(warm_id, timeout=120)
            warm = service.status(warm_id)
        assert warm.executed == 0
        assert warm.cache_hits == len(PLAN)
        assert [r.report for r in first] == [r.report for r in second]

    def test_every_job_leaves_a_valid_manifest(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with SweepService(store) as service:
            status = service.wait(service.submit(PLAN), timeout=120)
        manifest = store.read_manifest(status.manifest_id)
        assert len(manifest["points"]) == len(PLAN)
        assert manifest["timings"]["executed"] == 2
        assert [p["key"] for p in manifest["points"]] == [point_key(p) for p in PLAN]
        for entry in manifest["points"]:
            assert store.has_blob(entry["blob"])
        assert store.verify().ok

    def test_in_flight_dedupe_across_submitters(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with SweepService(store) as service:
            first = service.submit(SweepPlan((SlowPoint("shared"),)))
            assert _STARTED.wait(timeout=30)  # job 1 owns "shared" and is executing
            second = service.submit(SweepPlan((SlowPoint("shared"), SlowPoint("other"))))
            # once job 2 is executing "other" it has already enumerated (and
            # borrowed) "shared"; only then is it safe to let job 1 publish
            wait_for(lambda: "other" in _EXECUTIONS, timeout=30, message="job 2 start")
            _RELEASE.set()
            results_first = service.results(first, timeout=60)
            results_second = service.results(second, timeout=60)
            status = service.status(second)
        # the shared point ran exactly once, in job 1; job 2 borrowed it
        assert _EXECUTIONS.count("shared") == 1
        assert _EXECUTIONS.count("other") == 1
        assert status.deduped == 1
        assert status.executed == 1
        assert results_first[0] == {"name": "shared"}
        assert results_second == [{"name": "shared"}, {"name": "other"}]

    def test_duplicate_points_within_one_plan_execute_once(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _RELEASE.set()  # no need to block for this one
        with SweepService(store) as service:
            plan = SweepPlan((SlowPoint("twin"), SlowPoint("twin")))
            results = service.results(service.submit(plan), timeout=60)
            status = service.status(service.job_ids()[0])
        assert _EXECUTIONS.count("twin") == 1
        assert status.executed == 1
        assert status.deduped == 1
        assert results[0] == results[1] == {"name": "twin"}

    def test_failing_point_fails_the_job_not_the_service(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with SweepService(store) as service:
            bad = service.submit(SweepPlan((FailingPoint(),)))
            status = service.wait(bad, timeout=60)
            assert status.state == "failed"
            assert "injected point failure" in status.error
            with pytest.raises(RuntimeError, match="injected point failure"):
                service.results(bad, timeout=60)
            # the service still serves later jobs
            good = service.results(service.submit(PLAN), timeout=120)
        assert len(good) == len(PLAN)
        # no manifest for the failed job, and the store still verifies
        assert store.verify().ok

    def test_borrower_sees_the_owners_failure(self, tmp_path):
        store = ArtifactStore(tmp_path)

        class GatedFailure(FailingPoint):
            def execute(self):
                _STARTED.set()
                assert _RELEASE.wait(timeout=30)
                raise RuntimeError("injected point failure")

        with SweepService(store) as service:
            owner = service.submit(SweepPlan((GatedFailure(),)))
            assert _STARTED.wait(timeout=30)
            borrower = service.submit(SweepPlan((GatedFailure(),)))
            _RELEASE.set()
            assert service.wait(owner, timeout=60).state == "failed"
            assert service.wait(borrower, timeout=60).state == "failed"

    def test_missing_ref_fails_the_job_and_names_the_key(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        lost = point_key(PLAN[1])
        get_ref = store.get_ref
        monkeypatch.setattr(store, "get_ref", lambda key: None if key == lost else get_ref(key))
        with SweepService(store) as service:
            status = service.wait(service.submit(PLAN), timeout=120)
        assert status.state == "failed"
        assert lost in status.error
        assert status.manifest_id is None
        assert store.manifest_ids() == []

    def test_unknown_job_raises(self, tmp_path):
        with SweepService(ArtifactStore(tmp_path)) as service:
            with pytest.raises(KeyError):
                service.status("job-999999")


class TestSpool:
    def test_submit_serve_poll_redeem(self, tmp_path):
        spool, store = tmp_path / "spool", ArtifactStore(tmp_path / "store")
        job_id = submit_job(spool, PLAN)
        assert read_status(spool, job_id) is None  # not served yet
        statuses = serve_once(spool, store, workers=2)
        assert [s["job_id"] for s in statuses] == [job_id]
        document = wait_for_job(spool, job_id, timeout=5)
        assert document["state"] == "done"
        assert document["executed"] == len(PLAN)
        results = job_results(store, document["manifest"])
        assert [r.report for r in results] == [r.report for r in execute_plan(PLAN)]

    def test_second_spooled_job_is_store_served(self, tmp_path):
        spool, store = tmp_path / "spool", ArtifactStore(tmp_path / "store")
        submit_job(spool, PLAN)
        serve_once(spool, store)
        warm_job = submit_job(spool, PLAN)
        serve_once(spool, store)
        document = read_status(spool, warm_job)
        assert document["executed"] == 0
        assert document["cache_hits"] == len(PLAN)
        assert len(store.manifest_ids()) == 2

    def test_empty_spool_serves_nothing(self, tmp_path):
        assert serve_once(tmp_path / "spool", ArtifactStore(tmp_path / "store")) == []

    def test_serve_forever_bounded_cycles(self, tmp_path):
        spool, store = tmp_path / "spool", ArtifactStore(tmp_path / "store")
        submit_job(spool, SweepPlan.single("bv", 4, "qubit_only"))
        served = serve_forever(spool, store, poll_interval=0.01, max_cycles=2)
        assert served == 1

    def test_qasm_points_spool_roundtrip(self, tmp_path):
        from repro.runner import SweepPoint

        bell = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                "qreg q[2];\nh q[0];\ncx q[0],q[1];\n")
        plan = SweepPlan((SweepPoint.from_qasm(bell, "qubit_only", name="bell"),))
        spool, store = tmp_path / "spool", ArtifactStore(tmp_path / "store")
        job_id = submit_job(spool, plan)
        serve_once(spool, store)
        document = read_status(spool, job_id)
        assert document["state"] == "done"
        results = job_results(store, document["manifest"])
        assert results[0].compiled.circuit_name == "bell"

    def test_wait_for_job_times_out_when_unserved(self, tmp_path):
        spool = tmp_path / "spool"
        job_id = submit_job(spool, PLAN)
        with pytest.raises(TimeoutError, match="unclaimed"):
            wait_for_job(spool, job_id, timeout=0.1, poll=0.02)

    def test_unreadable_job_fails_alone(self, tmp_path):
        spool, store = tmp_path / "spool", ArtifactStore(tmp_path / "store")
        good_id = submit_job(spool, SweepPlan.single("bv", 4, "qubit_only"))
        (spool / "jobs" / "000bad.json").write_text('{"schema": 1, "job_id": "000b')
        statuses = {document["job_id"]: document
                    for document in serve_once(spool, store)}
        assert statuses[good_id]["state"] == "done"
        assert read_status(spool, good_id)["state"] == "done"
        bad = read_status(spool, "000bad")
        assert bad == statuses["000bad"]
        assert bad["state"] == "failed"
        assert bad["error"].startswith("JSONDecodeError: ")
        assert list((spool / "running").iterdir()) == []

    def test_failed_spool_job_reports_the_error(self, tmp_path):
        spool, store = tmp_path / "spool", ArtifactStore(tmp_path / "store")
        job_id = submit_job(spool, SweepPlan.single("bv", 4, "qubit_only"))
        # sabotage the job file so the plan rebuild fails server-side
        jobs_dir = spool / "jobs"
        path = next(jobs_dir.glob("*.json"))
        path.write_text(path.read_text().replace("qubit_only", "no_such_strategy"))
        statuses = serve_once(spool, store)
        assert statuses[0]["state"] == "failed"
        assert read_status(spool, job_id)["state"] == "failed"
