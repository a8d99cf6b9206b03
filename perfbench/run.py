"""Benchmark command: four in-process workloads, each run in fresh processes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compile-sweep --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py                 # all four workloads, one row each
    python3 perfbench/run.py --trace 1       # all four, per-layer breakdown

One invocation repeats the workload in fresh child processes
(``child.py``) for ``--seconds``, one run per child and at least
:data:`MIN_RUNS`, one after another, so no run reads a memo an earlier run
warmed.  With ``--trace 0`` it reports the end-to-end metrics as medians
over the children, the times scaled to a reference machine speed (see
:data:`PROBE_REFERENCE_S`); with ``--trace 1`` it alternates untraced and
traced children and reports the per-layer metrics of the traced ones (medians),
the tracing overhead, and the import-time split of ``repro.cli``.  Every
run's outputs are checked; traced and untraced digests must agree, and at
the default seed they must equal the committed ``digests.json``.

With ``--workload`` the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  Results, machine
record, per-run samples and the traced runs' per-layer JSON and Chrome
trace files go under ``perfbench/out/``.  The exit code is 0 when every
check passed, 1 when one failed, and 2 when the source tree is missing.

This file imports only the standard library; ``repro`` runs in children.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("validate-eps", "validate-eps-tracked", "compile-sweep", "spool-replay")
DEFAULT_SEED = 0

#: Untraced children per invocation, whatever ``--seconds`` allows.
MIN_RUNS = 3
#: Seconds one child may take before it is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0

#: ``child.speed_probe`` time that defines the reference machine speed.
#: The host's speed drifts by a third or more over minutes as other
#: tenants come and go, and every time a workload takes drifts with it;
#: ``setup_s`` and ``run_s`` are the measured medians times this over the
#: median of the children's mean probe times, i.e. seconds at the
#: reference speed.
#: On the 2-vCPU Intel Xeon VM the benchmark was built on, the probe's
#: invocation medians ran from 0.034 to 0.066 s (median 0.047 s) over
#: forty invocations as its speed drifted.
PROBE_REFERENCE_S = 0.05

#: End-to-end metrics and their units, in report order.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "eps_nlog10": "dex",
    "comm_ops": "count",
    "makespan_us": "us",
}


def _benchmark_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def machine_record(seed: int, child: dict | None) -> dict:
    """Seed, CPU, versions, BLAS threads and commit for a result file."""
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    child = child or {}
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        **child.get("versions", {}),
        "blas_threads": child.get("blas_threads"),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout read from ``.git`` (None outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(spec: dict) -> dict:
    """Run one child to completion; its parsed last line, or a failure."""
    spec = dict(spec, spawned=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"failures": [f"child timed out after {CHILD_TIMEOUT_S}s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"failures": [f"child exited {proc.returncode}: {' | '.join(tail)}"]}
    return json.loads(lines[-1])


def import_times() -> dict:
    """Cumulative ``-X importtime`` seconds of ``repro.cli`` and ``repro.pulses``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)", line)
        if match:
            cumulative[match.group(2)] = int(match.group(1)) / 1e6
    return {
        "setup.import_s": cumulative.get("repro.cli", 0.0),
        "setup.import_pulses_s": cumulative.get("repro.pulses", 0.0),
    }


def committed_digest(workload: str) -> str | None:
    digests = json.loads((HERE / "digests.json").read_text())
    return digests.get(workload)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat ``workload`` in fresh children for ``seconds``; aggregate."""
    work = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runs: list[dict] = []
    try:
        base = {"workload": workload, "seed": seed, "out": str(OUT / "traces")}
        if workload == "spool-replay":
            store = work / "store"
            warm = spawn({**base, "mode": "warm", "store": str(store), "work": str(work),
                          "trace": False})
            if "cold" not in warm:
                return _aggregate(workload, seed, trace, [warm], {})
            (work / "cold.json").write_text(json.dumps(warm["cold"]))
            base["cold"] = str(work / "cold.json")
        start = time.monotonic()
        last = 0.0
        while True:
            index = len(runs)
            traced = trace and index % 2 == 1
            run_dir = work / f"run-{index}"
            run_dir.mkdir()
            spec = {**base, "trace": traced, "work": str(run_dir), "verify": index == 0,
                    "run_id": f"{workload}-seed{seed}-run{index}",
                    "store": str(work / "store" if workload == "spool-replay"
                                 else run_dir / "store")}
            began = time.monotonic()
            result = spawn(spec)
            last = time.monotonic() - began
            result["traced"] = traced
            runs.append(result)
            shutil.rmtree(run_dir, ignore_errors=True)
            untraced = sum(1 for r in runs if not r["traced"])
            enough = untraced >= (1 if trace else MIN_RUNS) and (
                not trace or any(r["traced"] for r in runs))
            if enough and time.monotonic() - start + last / 2 > seconds:
                break
        layers = import_times() if trace else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return _aggregate(workload, seed, trace, runs, layers)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def run_time(runs: list[dict]) -> float:
    """One run's time: the sum over its laps of each lap's median over runs.

    A workload that is one call has one lap, and this is the median run
    time.  compile-sweep has one lap per point and spool-replay one per
    resubmission, so a burst of machine noise during one run moves only
    the laps it overlapped, which the per-lap medians then discard.
    """
    if not runs:
        return float("nan")
    return sum(_median(list(lap)) for lap in zip(*(r["laps"] for r in runs)))


def _aggregate(workload: str, seed: int, trace: bool, runs: list[dict], layers: dict) -> dict:
    """Check every run's outputs against each other and fold the samples."""
    for run in runs:
        run.setdefault("traced", False)
        run["failures"] = list(run.get("failures", []))
    finished = [r for r in runs if "digest" in r]
    reference = finished[0] if finished else None
    expected = committed_digest(workload) if seed == DEFAULT_SEED else None
    for run in finished:
        if run["digest"] != reference["digest"] or run["quality"] != reference["quality"]:
            run["failures"].append(
                ("traced" if run["traced"] else "untraced")
                + " run's outputs differ from the first run's"
            )
        if expected is not None and run["digest"] != expected:
            run["failures"].append(f"digest {run['digest'][:12]} != committed {expected[:12]}")
    plain = [r for r in finished if not r["traced"]]
    traced = [r for r in finished if r["traced"]]
    metrics: dict[str, float] = {}
    #: Medians as measured, before scaling to the reference speed.
    measured: dict[str, float] = {}
    if trace:
        for name in traced[0]["layers"] if traced else []:
            metrics[name] = _median([r["layers"][name] for r in traced])
        metrics.update(layers)
        metrics["trace.overhead_s"] = run_time(traced) - run_time(plain)
    else:
        measured = {"setup_s": _median([r["setup_s"] for r in plain]), "run_s": run_time(plain),
                    "probe_s": _median([r["probe_s"] for r in plain])}
        for name in ("setup_s", "run_s"):
            metrics[name] = measured[name] * PROBE_REFERENCE_S / measured["probe_s"]
        metrics["peak_rss_mb"] = _median([r["peak_rss_mb"] for r in plain])
        for name in ("eps_nlog10", "comm_ops", "makespan_us"):
            metrics[name] = reference["quality"][name] if reference else float("nan")
    failed = sum(1 for r in runs if r["failures"])
    return {
        "workload": workload,
        "correct": failed == 0 and bool(finished),
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
        "measured": measured,
        "machine": machine_record(seed, reference),
        "runs": runs,
    }


def _units(trace: bool) -> dict:
    if not trace:
        return END_TO_END
    return {metric["name"]: metric["unit"] for metric in _benchmark_config()["per_layer"]}


def contract_line(summary: dict, trace: bool) -> str:
    units = _units(trace)
    return json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": summary["metrics"].get(name, float("nan")), "unit": unit}
            for name, unit in units.items()
        },
    })


def save(summary: dict, seed: int, trace: bool) -> Path:
    path = OUT / "results" / f"{summary['workload']}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return path


def print_table(summaries: list[dict], trace: bool) -> None:
    """One row per workload with every metric by name and unit."""
    units = _units(trace)
    names = ["failed_frac"] + list(units)
    header = ["workload", "attempted", "failed"] + [
        f"{name} [{units.get(name, 'ratio')}]" for name in names
    ]
    rows = [header]
    for summary in summaries:
        frac = summary["failed"] / summary["attempted"] if summary["attempted"] else 1.0
        values = {"failed_frac": frac, **summary["metrics"]}
        rows.append([summary["workload"], str(summary["attempted"]), str(summary["failed"])]
                    + [f"{values.get(name, float('nan')):.6g}" for name in names])
    if trace:  # many metrics: one block per workload, one metric per line
        for summary, row in zip(summaries, rows[1:]):
            print(f"\n== {summary['workload']}")
            for label, value in zip(header[1:], row[1:]):
                print(f"  {label:<40} {value}")
        return
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))


def _exit_on_sigterm(signum, frame) -> None:
    """Unwind on SIGTERM, so ``subprocess.run`` kills the running child."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload and print the JSON result line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {SOURCE / 'repro'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else _benchmark_config()["run_seconds"]
    trace = bool(args.trace)
    names = [args.workload] if args.workload else list(WORKLOADS)
    summaries = []
    for name in names:
        summary = run_workload(name, args.seed, seconds, trace)
        path = save(summary, args.seed, trace)
        for run in summary["runs"]:
            for failure in run["failures"]:
                print(f"FAILED {name}: {failure}", file=sys.stderr)
        print(f"{name}: {summary['attempted']} runs, {summary['failed']} failed -> {path}",
              file=sys.stderr)
        summaries.append(summary)
    if args.workload:
        print(contract_line(summaries[0], trace))
    else:
        print_table(summaries, trace)
    return 0 if all(s["correct"] for s in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
