"""Regression tests for replay's store-root contract.

The bug under test: ``ReplayBackend._lookup`` used to hardcode the
process-default cache directory, so library callers against a non-default
store silently missed (or were served another store's artifacts), and the
CLI papered over it by mutating ``os.environ[CACHE_DIR_ENV]``
process-wide.  Now the executor and the sweep service look every replay
point up in the caller's store themselves and refuse a miss there
(:func:`repro.runner.cache.refuse_store_miss`) before anything is
dispatched — with content keys unchanged and no environment mutation
anywhere.
"""

import dataclasses
import json
import os

import pytest

from repro.backends import ReplayMissError
from repro.cli import main
from repro.evaluation import validate_eps
from repro.noise import NoiseSpec, shot_plan
from repro.runner import (
    CompileCache,
    ParallelExecutor,
    SweepPoint,
    execute_plan,
)
from repro.service import SweepService
from repro.store import ArtifactStore

TABLE1 = NoiseSpec.from_preset("table1")


def _warm_store(root, *points):
    """Execute ``points`` on their own backend into the store at ``root``."""
    cache = CompileCache.from_store(ArtifactStore(root))
    return cache, execute_plan(list(points), cache=cache)


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    return dict(os.environ)


class TestReplayBackendLookup:
    """Replay resolves against the caller's store before any dispatch."""

    def test_executor_refuses_a_cold_store_without_dispatching(
        self, tmp_path, clean_env, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        # warm the default root: only the executor's own store may answer
        _warm_store(tmp_path / ".repro_cache", SweepPoint("bv", 4, "eqm"))
        dispatched = []

        class SpyExecutor(ParallelExecutor):
            def _execute(self, points):
                dispatched.append(list(points))
                return super()._execute(points)

        cold = tmp_path / "cold_store"
        executor = SpyExecutor(
            workers=2, cache=CompileCache.from_store(ArtifactStore(cold))
        )
        plan = [SweepPoint("bv", 4, strategy, backend="replay")
                for strategy in ("eqm", "qubit_only")]
        with pytest.raises(ReplayMissError, match="cold_store"):
            executor.run(plan)
        assert dispatched == []

    def test_spec_with_an_old_cache_root_entry_still_loads(self):
        point = SweepPoint("bv", 4, "eqm", backend="replay")
        spec = {**point.spec(), "cache_root": "/old/spool/store"}
        assert SweepPoint.from_spec(spec) == point

    def test_shot_chunks_replay_from_a_custom_root(self, tmp_path, clean_env,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        store_root = tmp_path / "warm"
        compile_point = SweepPoint("bv", 4, "eqm")
        cache = CompileCache.from_store(ArtifactStore(store_root))
        plan = shot_plan(compile_point, TABLE1, 400, seed=7, chunk_size=150)
        chunks = execute_plan(plan, cache=cache)
        replay_plan = [
            dataclasses.replace(
                p, compile_point=dataclasses.replace(p.compile_point, backend="replay")
            )
            for p in plan
        ]
        executor = ParallelExecutor(cache=cache)
        replayed = executor.run(replay_plan)
        assert executor.last_stats.executed == 0
        assert executor.last_stats.cache_hits == len(replay_plan)
        assert replayed == chunks


class TestValidateEpsReplay:
    """`validate_eps(backend="replay", cache=...)` resolves the caller's store."""

    KWARGS = dict(benchmarks=("bv",), sizes=(4,), strategies=("qubit_only",),
                  shots=600, seed=1)

    def test_replay_against_a_custom_store(self, tmp_path, clean_env, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = CompileCache.from_store(ArtifactStore(tmp_path / "warm"))
        warm = validate_eps(cache=cache, **self.KWARGS)
        replayed = validate_eps(cache=cache, backend="replay", **self.KWARGS)
        assert [row.as_dict() for row in replayed] == [row.as_dict() for row in warm]
        assert "REPRO_CACHE_DIR" not in os.environ

    def test_replay_against_a_cold_custom_store_misses(self, tmp_path, clean_env,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        # warm only the *default* root: a cold custom store must miss
        # loudly instead of silently serving the default root's artifacts
        default_cache = CompileCache.from_store(ArtifactStore(tmp_path / ".repro_cache"))
        validate_eps(cache=default_cache, **self.KWARGS)
        cold = CompileCache.from_store(ArtifactStore(tmp_path / "cold"))
        with pytest.raises(ReplayMissError, match="cold"):
            validate_eps(cache=cold, backend="replay", **self.KWARGS)
        assert "REPRO_CACHE_DIR" not in os.environ


class TestSweepServiceReplay:
    """The service resolves replay against its own store, not the default."""

    def test_replay_job_serves_from_the_service_store(self, tmp_path, clean_env,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = ArtifactStore(tmp_path / "service_store")
        service = SweepService(store=store)
        point = SweepPoint("bv", 4, "eqm")
        job = service.submit([point])
        service.wait(job)
        assert service.status(job).state == "done"
        replay = dataclasses.replace(point, backend="replay")
        job2 = service.submit([replay])
        service.wait(job2)
        status = service.status(job2)
        assert status.state == "done"
        assert status.executed == 0
        assert status.cache_hits == 1
        assert "REPRO_CACHE_DIR" not in os.environ

    def test_replay_job_against_an_empty_store_misses_loudly(
        self, tmp_path, clean_env, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        # warm the default root so a store-root leak would silently serve
        point = SweepPoint("bv", 4, "eqm")
        _warm_store(tmp_path / ".repro_cache", point)
        empty = ArtifactStore(tmp_path / "empty_store")
        service = SweepService(store=empty)
        job = service.submit([dataclasses.replace(point, backend="replay")])
        service.wait(job)
        status = service.status(job)
        assert status.state == "failed"
        assert "ReplayMissError" in status.error
        assert "empty_store" in status.error
        assert "REPRO_CACHE_DIR" not in os.environ


class TestReplayCLI:
    """CLI behaviour unchanged — minus the process-wide env mutation."""

    def test_replay_sweep_no_longer_mutates_the_environment(
        self, capsys, tmp_path, clean_env, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "sweep.json"
        cache_dir = tmp_path / "custom_cache"
        base = ["sweep", "--benchmarks", "bv", "--sizes", "4",
                "--strategies", "qubit_only",
                "--cache-dir", str(cache_dir), "--json", str(target)]
        assert main(base) == 0
        warm = json.loads(target.read_text())
        capsys.readouterr()
        assert main(base + ["--backend", "replay"]) == 0
        capsys.readouterr()
        replayed = json.loads(target.read_text())
        assert replayed["rows"] == warm["rows"]
        assert replayed["cache"] == {"enabled": True, "hits": 1, "misses": 0}
        assert "REPRO_CACHE_DIR" not in os.environ

    def test_replay_validate_eps_cli_with_custom_cache_dir(
        self, capsys, tmp_path, clean_env, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        cache_dir = tmp_path / "custom_cache"
        base = ["validate-eps", "--smoke", "--cache-dir", str(cache_dir)]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--backend", "replay"]) == 0
        out = capsys.readouterr().out
        assert "validated" in out.lower() or "ok" in out.lower()
        assert "REPRO_CACHE_DIR" not in os.environ
