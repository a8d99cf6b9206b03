"""Self-tests of the benchmark: its checks fail on bad outputs, its traces repeat.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.  The workloads run here on reduced inputs so the checks
are exercised in seconds; the two traced runs use the real
``validate-eps`` workload in fresh child processes.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run as bench  # noqa: E402
import tracer as bench_tracer  # noqa: E402
import workloads  # noqa: E402
from repro.runner import SweepPlan  # noqa: E402
from repro.store import ArtifactStore  # noqa: E402

SMALL_PLAN = SweepPlan.cartesian(("bv", "qft"), (4,), ("qubit_only", "eqm"), seed=3)
SMALL_VALIDATION = {"benchmarks": ("bv",), "sizes": (4,), "strategies": ("eqm", "rb")}


@pytest.mark.parametrize("tracked", [False, True])
def test_validation_check_trips_on_corrupted_rows(tmp_path, tracked):
    outcome = workloads.run_validate(
        3, ArtifactStore(tmp_path), tracked=tracked, shots=400, **SMALL_VALIDATION,
    )
    assert outcome.failures == [] and outcome.cells == 2
    rows = workloads.validate.validate_eps(
        seed=3, shots=400, track_state=tracked, **SMALL_VALIDATION,
    )
    assert workloads.check_validation(rows, expected_cells=2) == []
    wrong = dataclasses.replace(rows[0], analytic_eps=rows[0].analytic_eps / 2)
    assert workloads.check_validation([wrong, rows[1]], expected_cells=2)
    assert workloads.check_validation(rows[:1], expected_cells=2)


def test_compile_check_trips_on_corrupted_program(tmp_path):
    outcome = workloads.run_compile_sweep(3, ArtifactStore(tmp_path), plan=SMALL_PLAN)
    assert outcome.failures == []
    results = workloads.runner.execute_plan(SMALL_PLAN)
    assert workloads.compile_digest(results) == outcome.digest
    results[1].compiled.ops[0].start_ns = -1.0  # an op that was never scheduled
    failures = workloads.check_compiles(SMALL_PLAN, results)
    assert len(failures) == 1 and "verifier errors" in failures[0]
    assert workloads.compile_digest(results) != outcome.digest
    assert workloads.check_compiles(SMALL_PLAN, results[:-1])


def test_replay_check_trips_on_each_corruption(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    cold = workloads.warm_store(3, store, plan=SMALL_PLAN)
    outcome = workloads.run_spool_replay(
        3, store, tmp_path / "spool", cold, plan=SMALL_PLAN, resubmissions=2,
    )
    assert outcome.failures == [] and len(outcome.laps) == 2
    results = workloads.spool.job_results(store, store.manifest_ids()[0])
    status = {"state": "done", "executed": 0, "cache_hits": len(SMALL_PLAN)}
    check = workloads.check_replay
    assert check([status], results, cold, len(SMALL_PLAN)) == []
    assert check([{**status, "executed": 1}], results, cold, len(SMALL_PLAN))
    assert check([{**status, "cache_hits": 1}], results, cold, len(SMALL_PLAN))
    assert check([status], results[::-1], cold, len(SMALL_PLAN))
    blob = store.blob_path(cold["blobs"][0])
    blob.write_bytes(blob.read_bytes()[:-1])
    rerun = workloads.run_spool_replay(
        3, store, tmp_path / "again", cold, plan=SMALL_PLAN, resubmissions=1,
    )
    assert rerun.failures


def _fake_run(**changes) -> dict:
    run = {"digest": "b" * 64, "setup_s": 1.0, "laps": [0.5, 1.5], "peak_rss_mb": 1.0,
           "probe_s": bench.PROBE_REFERENCE_S,
           "quality": {"eps_nlog10": 1.0, "comm_ops": 1, "makespan_us": 1.0}}
    return {**run, **changes}


def test_digest_mismatch_at_default_seed_fails_the_run(monkeypatch):
    monkeypatch.setattr(bench, "committed_digest", lambda workload: "a" * 64)
    summary = bench._aggregate("compile-sweep", bench.DEFAULT_SEED, False, [_fake_run()], {})
    assert not summary["correct"] and summary["failed"] == 1
    summary = bench._aggregate("compile-sweep", bench.DEFAULT_SEED + 1, False, [_fake_run()], {})
    assert summary["correct"] and summary["metrics"]["run_s"] == 2.0


def test_run_time_sums_per_lap_medians():
    runs = [_fake_run(laps=[1.0, 9.0]), _fake_run(laps=[9.0, 1.0]), _fake_run(laps=[2.0, 2.0])]
    assert bench.run_time(runs) == 4.0


def test_traced_and_untraced_outputs_must_agree():
    traced = _fake_run(digest="c" * 64, traced=True, layers={"unattributed_s": 0.0})
    summary = bench._aggregate("validate-eps", 7, True, [_fake_run(), traced], {})
    assert not summary["correct"]
    assert "traced run's outputs differ" in summary["runs"][1]["failures"][0]


def test_tracer_restores_every_original():
    from repro.compiler.routing import Router
    from repro.runner import cache
    from repro.simulation.batched import BatchedMixedRadixState
    from repro.store import artifacts

    before = (Router.run, cache.point_key, artifacts.pickle,
              vars(BatchedMixedRadixState)["vectors"])
    tracer = bench_tracer.Tracer("restore")
    tracer.install()
    assert Router.run is not before[0] and artifacts.pickle is not before[2]
    tracer.uninstall()
    after = (Router.run, cache.point_key, artifacts.pickle,
             vars(BatchedMixedRadixState)["vectors"])
    assert after == before


def test_self_time_yields_to_a_later_span_on_another_thread():
    # [name, start, end, parent, thread, attrs]: a wait on thread 1 covers
    # a job span on thread 2 and a child span nested in the wait
    spans = [["wait", 0.0, 10.0, None, 1, None], ["job", 2.0, 6.0, None, 2, None],
             ["inner", 3.0, 4.0, 1, 2, None]]
    assert bench_tracer.self_times(spans) == [6.0, 3.0, 1.0]


def test_two_traced_runs_report_identical_counts(tmp_path):
    counts = ("compiler.compile_calls", "compiler.swap_cost_calls",
              "store.get_calls", "noise.rng_draws")
    layers = []
    for index in range(2):
        result = bench.spawn({
            "workload": "validate-eps", "seed": 0, "trace": True,
            "run_id": f"selftest-{index}", "out": str(tmp_path / "traces"),
            "store": str(tmp_path / f"store-{index}"), "work": str(tmp_path),
        })
        assert result.get("failures") == [], result
        layers.append(result["layers"])
        assert (tmp_path / "traces" / f"selftest-{index}.trace.json").is_file()
    assert all(layers[0][name] > 0 for name in counts)
    assert [layers[0][n] for n in counts] == [layers[1][n] for n in counts]
    document = json.loads((tmp_path / "traces" / "selftest-0.layers.json").read_text())
    assert document["metrics"] == layers[0]
