"""Command-line interface for the Qompress reproduction.

Provides quick access to the compiler and the evaluation harness without
writing Python::

    python -m repro compile --benchmark cuccaro --qubits 16 --strategy rb
    python -m repro compile --qasm examples/teleport.qasm --strategy eqm
    python -m repro compile --benchmark qft --qubits 12 --emit-qasm routed.qasm
    python -m repro sweep --benchmarks cuccaro qft ghz --sizes 8 12 --strategies qubit_only eqm
    python -m repro sweep --workers 4 --cache-dir .repro_cache --json results/sweep.json
    python -m repro simulate --benchmark bv --qubits 6 --strategy eqm --shots 2000
    python -m repro validate-eps --shots 2000 --workers 4
    python -m repro validate-eps --smoke
    python -m repro sweep --backend replay --cache-dir .repro_cache
    python -m repro crosscheck --shots 2000 --json results/crosscheck.json
    python -m repro table1
    python -m repro figure --name fig12 --output results/fig12.csv
    python -m repro submit --benchmarks bv ghz --sizes 4 6 --spool .spool --wait
    python -m repro serve --spool .spool --store .repro_cache --workers 4
    python -m repro store stats --dir .repro_cache
    python -m repro store verify --json
    python -m repro store gc

Every subcommand prints a plain-text table; ``--output`` additionally writes
a CSV file and ``--json`` a JSON file.  ``--workers N`` fans the sweep out
over N processes through :mod:`repro.runner`; ``--workers 1`` (the default)
is the serial reproducibility path and produces identical numbers.
``--backend replay`` serves every point from the ``--cache-dir`` store (the
default cache directory without one) and exits 2, naming that store, on the
first point it has no result for.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING

# name tables only: the parser lists every verb's choices without loading
# any strategy, workload, noise or evaluation code
from repro.compression.names import STRATEGY_CLASSES
from repro.evaluation.defaults import (
    DEFAULT_CROSSCHECK_BACKENDS,
    DEFAULT_VALIDATION_SHOTS,
    DEFAULT_VALIDATION_STRATEGIES,
)
from repro.noise.presets import NOISE_PRESETS
from repro.workloads.names import BENCHMARK_NAMES

if TYPE_CHECKING:
    from repro.runner.cache import CompileCache
    from repro.runner.plan import SweepPlan
    from repro.runner.records import SweepPoint

_FIGURES = ("fig3", "fig4", "fig8", "fig9", "fig11", "fig12", "fig13")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    from repro.backends.registry import list_backends
    from repro.runner.cache import default_cache_dir

    strategies = sorted(STRATEGY_CLASSES)
    benchmarks = sorted(BENCHMARK_NAMES)
    noise_presets = sorted(NOISE_PRESETS)

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Qompress (ASPLOS 2023) reproduction command-line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compile_parser = subparsers.add_parser(
        "compile", help="compile one benchmark or OpenQASM file and report its EPS"
    )
    compile_source = compile_parser.add_mutually_exclusive_group(required=True)
    compile_source.add_argument("--benchmark", choices=benchmarks)
    compile_source.add_argument("--qasm", metavar="FILE",
                                help="compile this OpenQASM 2.0 file instead of a "
                                     "registry benchmark")
    compile_parser.add_argument("--qubits", type=int,
                                help="circuit size (required with --benchmark)")
    compile_parser.add_argument("--strategy", choices=strategies, default="eqm")
    compile_parser.add_argument("--device", choices=("grid", "heavy_hex", "ring"), default="grid")
    compile_parser.add_argument("--seed", type=int, default=0)
    compile_parser.add_argument("--show-gates", action="store_true",
                                help="also print the gate-type histogram")
    compile_parser.add_argument("--emit-qasm", metavar="FILE",
                                help="write the routed physical program as OpenQASM 2.0 "
                                     "(Table 1 gates declared opaque)")
    compile_parser.add_argument("--cache-dir", default=None,
                                help="serve/populate the compile cache rooted here "
                                     "(QASM files are content-keyed by text digest)")
    compile_parser.add_argument("--verify", action="store_true",
                                help="statically verify the compiled program "
                                     "(encode/decode bracketing, residency, "
                                     "classical dataflow, schedule, kernel "
                                     "conformance) and fail on any error finding")

    lint_parser = subparsers.add_parser(
        "lint", help="statically verify compiled programs without simulation "
                     "(linear in op count, so it scales far past replay)"
    )
    lint_source_group = lint_parser.add_mutually_exclusive_group()
    lint_source_group.add_argument("--qasm", metavar="FILE",
                                   help="lint this OpenQASM 2.0 file across "
                                        "strategies instead of the registry")
    lint_source_group.add_argument("--workload", nargs="+",
                                   choices=benchmarks,
                                   help="registry benchmarks to lint "
                                        "(default: the whole registry)")
    lint_parser.add_argument("--qubits", type=int, default=None,
                             help="circuit size (default: each benchmark's "
                                  "minimum sensible size)")
    lint_parser.add_argument("--strategies", nargs="+",
                             choices=strategies, default=None,
                             help="strategies to sweep (default: all seven "
                                  "canonical strategies)")
    lint_parser.add_argument("--device", choices=("grid", "heavy_hex", "ring"),
                             default="grid")
    lint_parser.add_argument("--seed", type=int, default=0)
    lint_parser.add_argument("--json", dest="json_output", action="store_true",
                             help="print the machine-readable report to stdout "
                                  "(what the CI static-verify gate asserts on)")

    sweep_parser = subparsers.add_parser(
        "sweep", help="run the Figure 7 / Figure 10 strategy sweep"
    )
    sweep_parser.add_argument("--benchmarks", nargs="+", choices=benchmarks,
                              default=["cuccaro", "cnu"])
    sweep_parser.add_argument("--sizes", nargs="+", type=int, default=[8, 12, 16])
    sweep_parser.add_argument("--strategies", nargs="+", choices=strategies,
                              default=["qubit_only", "eqm", "rb"])
    sweep_parser.add_argument("--device", choices=("grid", "heavy_hex", "ring"), default="grid")
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument("--output", help="write the sweep rows to this CSV file")
    sweep_parser.add_argument("--json", dest="json_output",
                              help="write the sweep rows to this JSON file")
    _add_runner_arguments(sweep_parser)
    _add_backend_argument(sweep_parser)

    simulate_parser = subparsers.add_parser(
        "simulate", help="Monte Carlo noise simulation of one compiled circuit"
    )
    simulate_source = simulate_parser.add_mutually_exclusive_group(required=True)
    simulate_source.add_argument("--benchmark", choices=benchmarks)
    simulate_source.add_argument("--qasm", metavar="FILE",
                                 help="simulate this OpenQASM 2.0 file instead of a "
                                      "registry benchmark")
    simulate_parser.add_argument("--qubits", type=int,
                                 help="circuit size (required with --benchmark)")
    simulate_parser.add_argument("--strategy", choices=strategies, default="eqm")
    simulate_parser.add_argument("--device", choices=("grid", "heavy_hex", "ring"),
                                 default="grid")
    simulate_parser.add_argument("--seed", type=int, default=0,
                                 help="seed for both the compile and the trajectories")
    simulate_parser.add_argument("--shots", type=int, default=8000)
    simulate_parser.add_argument("--noise", choices=noise_presets, default="table1")
    simulate_parser.add_argument("--track-state", action="store_true",
                                 help="also evolve the state vector for outcome-level "
                                      "metrics (compiles with single-qubit merging "
                                      "disabled; covers every strategy, fq included)")
    _add_runner_arguments(simulate_parser)
    _add_backend_argument(simulate_parser)

    validate_parser = subparsers.add_parser(
        "validate-eps",
        help="sweep small workloads and check the analytic EPS model "
             "against Monte Carlo simulation",
    )
    validate_parser.add_argument("--benchmarks", nargs="+", choices=benchmarks,
                                 default=None, help="(default: bv ghz qft)")
    validate_parser.add_argument("--sizes", nargs="+", type=int, default=None,
                                 help="(default: 4 6)")
    validate_parser.add_argument("--strategies", nargs="+", choices=strategies,
                                 default=None,
                                 help=f"(default: {' '.join(DEFAULT_VALIDATION_STRATEGIES)})")
    validate_parser.add_argument("--shots", type=int, default=None,
                                 help=f"(default: {DEFAULT_VALIDATION_SHOTS})")
    validate_parser.add_argument("--noise", choices=noise_presets, default="table1")
    validate_parser.add_argument("--seed", type=int, default=0)
    validate_parser.add_argument("--tolerance", type=float, default=0.10,
                                 help="max relative deviation accepted when the CI "
                                      "does not bracket the analytic value")
    validate_parser.add_argument("--track-state", action="store_true",
                                 help="also evolve every trajectory's state vector "
                                      "(batched path) and report outcome-level "
                                      "success per cell; compiles with single-qubit "
                                      "merging disabled")
    validate_parser.add_argument("--smoke", action="store_true",
                                 help="tiny fixed configuration for CI: bv/ghz at 4 "
                                      "qubits, qubit_only/eqm, 2000 shots")
    validate_parser.add_argument("--json", dest="json_output",
                                 help="write the validation rows to this JSON file")
    _add_runner_arguments(validate_parser)
    _add_backend_argument(validate_parser)

    crosscheck_parser = subparsers.add_parser(
        "crosscheck",
        help="run the same cells on two backends and assert their EPS "
             "estimates agree (independent cross-verification)",
    )
    crosscheck_parser.add_argument("--benchmarks", nargs="+",
                                   choices=benchmarks,
                                   default=["bv", "ghz"])
    crosscheck_parser.add_argument("--sizes", nargs="+", type=int, default=[4])
    crosscheck_parser.add_argument("--strategies", nargs="+",
                                   choices=strategies,
                                   default=["qubit_only", "eqm"])
    crosscheck_parser.add_argument("--backends", nargs="+", choices=list_backends(),
                                   default=list(DEFAULT_CROSSCHECK_BACKENDS),
                                   help="backends to compare (default: "
                                        f"{' '.join(DEFAULT_CROSSCHECK_BACKENDS)})")
    crosscheck_parser.add_argument("--shots", type=int, default=2000)
    crosscheck_parser.add_argument("--noise", choices=noise_presets,
                                   default="table1")
    crosscheck_parser.add_argument("--seed", type=int, default=0)
    crosscheck_parser.add_argument("--tolerance", type=float, default=0.10,
                                   help="max relative difference accepted when the "
                                        "backends' CIs do not overlap")
    crosscheck_parser.add_argument("--json", dest="json_output",
                                   help="write the comparison rows to this JSON file")
    crosscheck_parser.add_argument("--lint", action="store_true",
                                   help="statically verify every cell's compiled "
                                        "program first; any error finding fails "
                                        "the run before the dynamic comparison")
    _add_runner_arguments(crosscheck_parser)

    subparsers.add_parser("table1", help="print the Table 1 gate durations")

    figure_parser = subparsers.add_parser("figure", help="run one figure's experiment")
    figure_parser.add_argument("--name", choices=_FIGURES, required=True)
    figure_parser.add_argument("--output", help="write figure rows to this CSV file")
    _add_runner_arguments(figure_parser)

    store_parser = subparsers.add_parser(
        "store", help="inspect, audit or garbage-collect the artifact store"
    )
    store_parser.add_argument("action", choices=("stats", "verify", "gc"),
                              help="stats: inventory counts; verify: re-hash every "
                                   "blob and schema-check every ref/manifest; gc: "
                                   "drop unreferenced blobs and stale temp files")
    store_parser.add_argument("--dir", dest="store_dir", default=None,
                              help=f"store root (default: {default_cache_dir()})")
    store_parser.add_argument("--json", dest="json_output", action="store_true",
                              help="print the machine-readable report to stdout "
                                   "(what the CI validate-artifacts gate asserts on)")
    store_parser.add_argument("--lint", action="store_true",
                              help="with verify: also statically verify every "
                                   "compiled program the manifests reference, "
                                   "catching semantically-corrupt artifacts, "
                                   "not just hash mismatches")

    submit_parser = subparsers.add_parser(
        "submit", help="submit a sweep plan to the spool for an async server"
    )
    submit_parser.add_argument("--benchmarks", nargs="+", choices=benchmarks,
                               default=["cuccaro", "cnu"])
    submit_parser.add_argument("--sizes", nargs="+", type=int, default=[8, 12, 16])
    submit_parser.add_argument("--strategies", nargs="+", choices=strategies,
                               default=["qubit_only", "eqm", "rb"])
    submit_parser.add_argument("--device", choices=("grid", "heavy_hex", "ring"),
                               default="grid")
    submit_parser.add_argument("--seed", type=int, default=0)
    submit_parser.add_argument("--spool", required=True,
                               help="spool directory shared with the server")
    submit_parser.add_argument("--store", dest="store_dir", default=None,
                               help="artifact store root, used with --wait to print "
                                    f"the result table (default: {default_cache_dir()})")
    submit_parser.add_argument("--wait", action="store_true",
                               help="poll the job's status file until it finishes "
                                    "and print the sweep table from the store")
    submit_parser.add_argument("--timeout", type=float, default=300.0,
                               help="seconds --wait polls before giving up")
    submit_parser.add_argument("--quiet", action="store_true",
                               help="print only the job id (for shell capture)")
    _add_backend_argument(submit_parser)

    serve_parser = subparsers.add_parser(
        "serve", help="run the sweep server over a spool directory"
    )
    serve_parser.add_argument("--spool", required=True,
                              help="spool directory clients submit into")
    serve_parser.add_argument("--store", dest="store_dir", default=None,
                              help="artifact store root results are published to "
                                   f"(default: {default_cache_dir()})")
    serve_parser.add_argument("--workers", type=_worker_count, default=1,
                              help="process fan-out within each job")
    serve_parser.add_argument("--once", action="store_true",
                              help="drain the current backlog and exit (CI mode)")
    serve_parser.add_argument("--poll-interval", type=float, default=1.0,
                              help="seconds between spool scans when looping")

    return parser


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("worker count must be >= 1")
    return value


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared ``repro.runner`` engine knobs for sweep-shaped subcommands."""
    parser.add_argument("--workers", type=_worker_count, default=1,
                        help="worker processes (1 = serial reference path)")
    parser.add_argument("--cache-dir", default=None,
                        help="enable the compile cache rooted at this directory")


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    """Execution-backend selector shared by the point-running subcommands."""
    from repro.backends.registry import list_backends

    parser.add_argument("--backend", choices=list_backends(), default="trajectory",
                        help="execution backend for every point: 'trajectory' "
                             "(default engine), 'replay' (serve a warm store, "
                             "execute nothing) or 'external-sim' (QASM "
                             "round-trip + independent estimator)")


def _cache_from_args(args: argparse.Namespace) -> CompileCache | None:
    from repro.runner.cache import CompileCache, default_cache_dir
    from repro.store.artifacts import ArtifactStore

    cache_dir = getattr(args, "cache_dir", None)
    # replay answers points from a store, so it always gets one (the
    # requested --cache-dir, or the default directory): the executor looks
    # every point up there and refuses a miss
    if cache_dir is None and getattr(args, "backend", None) != "replay":
        return None
    return CompileCache.from_store(
        ArtifactStore(Path(cache_dir) if cache_dir else default_cache_dir())
    )


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------
def _compile_point_from_args(
    args: argparse.Namespace, compiler_kwargs: dict | None = None
) -> SweepPoint | int:
    """Build the declarative compile point a source-selecting subcommand asks
    for, or an exit code on a user error."""
    from repro.circuits.qasm import QasmError
    from repro.runner.records import DeviceSpec, SweepPoint, freeze_kwargs

    spec = DeviceSpec(kind=args.device)
    backend = getattr(args, "backend", "trajectory")
    if args.qasm is not None:
        try:
            return SweepPoint.from_qasm_file(
                args.qasm, args.strategy, device=spec, seed=args.seed,
                compiler_kwargs=compiler_kwargs, backend=backend,
            )
        except (OSError, QasmError) as error:
            print(f"error: cannot compile {args.qasm}: {error}", file=sys.stderr)
            return 2
    if args.qubits is None:
        print("error: --qubits is required with --benchmark", file=sys.stderr)
        return 2
    return SweepPoint(
        args.benchmark, args.qubits, args.strategy, device=spec, seed=args.seed,
        compiler_kwargs=freeze_kwargs(compiler_kwargs), backend=backend,
    )


def _run_compile(args: argparse.Namespace) -> int:
    from repro.evaluation.reporting import format_table
    from repro.metrics.histograms import grouped_histogram
    from repro.runner.executor import execute_plan
    from repro.runner.plan import SweepPlan

    point = _compile_point_from_args(args)
    if isinstance(point, int):
        return point
    cache = _cache_from_args(args)
    result = execute_plan(SweepPlan((point,)), cache=cache)[0]
    report = result.report
    rows = [
        ["circuit", result.compiled.circuit_name],
        ["device", report.device_name],
        ["strategy", report.strategy_name],
        ["compressed pairs", report.num_compressed_pairs],
        ["physical ops", report.num_ops],
        ["routing ops", report.num_communication_ops],
        ["makespan (us)", report.makespan_ns / 1000.0],
        ["gate EPS", report.gate_eps],
        ["coherence EPS", report.coherence_eps],
        ["total EPS", report.total_eps],
    ]
    print(format_table(["metric", "value"], rows))
    if args.show_gates:
        print()
        histogram = grouped_histogram(result.compiled)
        print(format_table(["gate type", "count"],
                           [[label, count] for label, count in histogram.items() if count]))
    if args.emit_qasm:
        path = Path(args.emit_qasm)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(result.compiled.to_qasm())
        print(f"\nwrote {path}")
    if cache is not None:
        print(f"\ncache: {cache.stats.hits} hits, {cache.stats.misses} misses "
              f"({cache.root})")
    if args.verify:
        from repro.analysis.passes import verify_compiled

        analysis = verify_compiled(result.compiled)
        for finding in analysis.findings:
            print(f"  {finding.describe()}",
                  file=sys.stderr if finding.severity == "error" else sys.stdout)
        if not analysis.ok:
            print(f"\nstatic verification FAILED: {len(analysis.errors)} error "
                  f"finding(s)", file=sys.stderr)
            return 1
        print(f"\nstatically verified: {len(analysis.passes_run)} passes, "
              f"{len(analysis.warnings)} warning(s)")
    return 0


def _lint_cells_table(cells: list) -> tuple[list[list], int, int]:
    """Flatten lint cells into table rows; returns (rows, errors, warnings)."""
    rows = []
    total_errors = 0
    total_warnings = 0
    for cell in cells:
        report = cell["report"]
        total_errors += len(report.errors)
        total_warnings += len(report.warnings)
        rows.append([
            cell["benchmark"], cell["qubits"], cell["strategy"],
            len(report.passes_run), len(report.errors), len(report.warnings),
            "ok" if report.ok else "FAIL",
        ])
    return rows, total_errors, total_warnings


def _run_lint(args: argparse.Namespace) -> int:
    from repro.analysis.drivers import lint_qasm, lint_workloads
    from repro.circuits.qasm import QasmError
    from repro.evaluation.reporting import format_table

    strategies = tuple(args.strategies) if args.strategies else None
    if args.qasm is not None:
        if args.qubits is not None:
            print("error: --qubits only applies to registry workloads",
                  file=sys.stderr)
            return 2
        try:
            cells = lint_qasm(args.qasm, strategies=strategies,
                              device_kind=args.device)
        except (OSError, QasmError) as error:
            print(f"error: cannot lint {args.qasm}: {error}", file=sys.stderr)
            return 2
    else:
        cells = lint_workloads(
            benchmarks=tuple(args.workload) if args.workload else None,
            num_qubits=args.qubits, strategies=strategies,
            device_kind=args.device, seed=args.seed,
        )
    rows, errors, warnings = _lint_cells_table(cells)
    if args.json_output:
        payload = {
            "schema": 1,
            "device": args.device,
            "ok": errors == 0,
            "errors": errors,
            "warnings": warnings,
            "cells": [
                {
                    "benchmark": cell["benchmark"],
                    "qubits": cell["qubits"],
                    "strategy": cell["strategy"],
                    **cell["report"].as_dict(),
                }
                for cell in cells
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(format_table(
            ["benchmark", "qubits", "strategy", "passes", "errors",
             "warnings", "status"], rows,
        ))
        for cell in cells:
            for finding in cell["report"].findings:
                stream = sys.stderr if finding.severity == "error" else sys.stdout
                print(f"  {cell['benchmark']}/{cell['strategy']}: "
                      f"{finding.describe()}", file=stream)
        verdict = (f"{len(cells)} cells statically verified"
                   if errors == 0 else
                   f"{errors} error finding(s) across {len(cells)} cells")
        print(f"\n{verdict}", file=sys.stdout if errors == 0 else sys.stderr)
    return 0 if errors == 0 else 1


def _run_simulate(args: argparse.Namespace) -> int:
    from repro.evaluation.reporting import format_table
    from repro.noise.model import NoiseSpec
    from repro.noise.points import prime_compiled, simulate_point
    from repro.runner.executor import execute_plan
    from repro.runner.plan import SweepPlan
    from repro.simulation.verify import VerificationError

    if args.shots <= 0:
        # zero-shot batches are valid plumbing (empty plans merge cleanly)
        # but there is nothing to report about one
        print("error: --shots must be positive", file=sys.stderr)
        return 2
    compiler_kwargs = {"merge_single_qubit_gates": False} if args.track_state else None
    point = _compile_point_from_args(args, compiler_kwargs=compiler_kwargs)
    if isinstance(point, int):
        return point
    cache = _cache_from_args(args)
    noise = NoiseSpec.from_preset(args.noise)
    compiled_result = execute_plan(SweepPlan((point,)), cache=cache)[0]
    prime_compiled(point, compiled_result.compiled)
    model = noise.build(compiled_result.compiled.device)
    analytic = model.analytic_total_eps(compiled_result.compiled)
    try:
        noisy = simulate_point(
            point, noise, args.shots, seed=args.seed,
            track_state=args.track_state, workers=args.workers, cache=cache,
        )
    except VerificationError as error:
        print(f"error: cannot track the state of this circuit: {error}",
              file=sys.stderr)
        return 2
    low, high = noisy.confidence_interval()
    rows = [
        ["circuit", compiled_result.compiled.circuit_name],
        ["strategy", point.strategy],
        ["noise preset", args.noise],
        ["shots", noisy.shots],
        ["analytic EPS", analytic],
        ["simulated success", noisy.success_probability],
        ["95% CI low", low],
        ["95% CI high", high],
        ["gate error events", noisy.gate_events],
        ["idle decay events", noisy.idle_events],
    ]
    if noisy.tracked:
        rows.append(["outcome success", noisy.outcome_probability])
        rows.append(["mean outcome fidelity", noisy.mean_outcome_fidelity])
    print(format_table(["metric", "value"], rows))
    if cache is not None:
        print(f"\ncache: {cache.stats.hits} hits, {cache.stats.misses} misses "
              f"({cache.root})")
    return 0


#: Fixed tiny configuration exercised by the CI smoke job.  The shot
#: budget rides the vectorised engine: 2000 shots per cell cost what 200
#: used to, and make the smoke verdicts far less borderline.
_SMOKE_VALIDATION = {
    "benchmarks": ("bv", "ghz"),
    "sizes": (4,),
    "strategies": ("qubit_only", "eqm"),
    "shots": 2000,
}


def _run_validate_eps(args: argparse.Namespace) -> int:
    from repro.evaluation.reporting import format_table
    from repro.evaluation.validate import validate_eps, validation_headers, validation_rows

    if args.shots is not None and args.shots <= 0:
        print("error: --shots must be positive", file=sys.stderr)
        return 2
    cache = _cache_from_args(args)
    explicit = [flag for flag, value in (
        ("--benchmarks", args.benchmarks), ("--sizes", args.sizes),
        ("--strategies", args.strategies), ("--shots", args.shots),
    ) if value is not None]
    if args.smoke and explicit:
        print(f"error: --smoke fixes the validation configuration; "
              f"remove {', '.join(explicit)}", file=sys.stderr)
        return 2
    if args.smoke:
        benchmarks = _SMOKE_VALIDATION["benchmarks"]
        sizes = _SMOKE_VALIDATION["sizes"]
        strategies = _SMOKE_VALIDATION["strategies"]
        shots = _SMOKE_VALIDATION["shots"]
    else:
        benchmarks = tuple(args.benchmarks or ("bv", "ghz", "qft"))
        sizes = tuple(args.sizes or (4, 6))
        strategies = tuple(args.strategies or DEFAULT_VALIDATION_STRATEGIES)
        shots = args.shots if args.shots is not None else DEFAULT_VALIDATION_SHOTS
    rows = validate_eps(
        benchmarks=benchmarks, sizes=sizes, strategies=strategies,
        noise=args.noise, shots=shots, seed=args.seed,
        rel_tolerance=args.tolerance, workers=args.workers, cache=cache,
        track_state=args.track_state, backend=args.backend,
    )
    print(format_table(validation_headers(args.track_state), validation_rows(rows)))
    if args.json_output:
        path = Path(args.json_output)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": 1,
            "noise": args.noise,
            "shots": shots,
            "seed": args.seed,
            "track_state": args.track_state,
            "rows": [row.as_dict() for row in rows],
            "validated": all(row.validated for row in rows),
        }
        path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
        print(f"\nwrote {path}")
    failures = [row for row in rows if not row.validated]
    if failures:
        print(f"\n{len(failures)} of {len(rows)} cells failed validation:",
              file=sys.stderr)
        for row in failures:
            print(f"  {row.benchmark}-{row.num_qubits} {row.strategy}: "
                  f"analytic {row.analytic_eps:.4f} vs simulated "
                  f"{row.simulated_eps:.4f}", file=sys.stderr)
        return 1
    print(f"\nall {len(rows)} cells validated: the analytic EPS model matches "
          "the Monte Carlo simulation")
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.evaluation.experiments import strategy_sweep
    from repro.evaluation.reporting import SWEEP_HEADERS, format_table, results_to_rows, save_csv

    cache = _cache_from_args(args)
    results = strategy_sweep(
        benchmarks=tuple(args.benchmarks),
        sizes=tuple(args.sizes),
        strategies=tuple(args.strategies),
        device_kind=args.device,
        seed=args.seed,
        workers=args.workers,
        cache=cache,
        backend=args.backend,
    )
    rows = results_to_rows(results)
    print(format_table(SWEEP_HEADERS, rows))
    if cache is not None:
        print(f"\ncache: {cache.stats.hits} hits, {cache.stats.misses} misses "
              f"({cache.root})")
    if args.output:
        path = save_csv(args.output, SWEEP_HEADERS, rows)
        print(f"\nwrote {path}")
    if args.json_output:
        path = save_json(args.json_output, SWEEP_HEADERS, rows, cache=cache,
                         backend=args.backend)
        print(f"\nwrote {path}")
    return 0


def save_json(
    path: str | Path,
    headers: list[str],
    rows: list[list],
    cache: CompileCache | None = None,
    backend: str = "trajectory",
) -> Path:
    """Write sweep rows plus cache hit/miss counters as JSON (CI artifact format).

    Schema 2: ``{"schema": 2, "backend": ..., "rows": [...], "cache":
    {"enabled", "hits", "misses"}}`` — CI asserts on the cache fields
    instead of scraping the human-readable stdout (a warm ``--backend
    replay`` run shows ``misses == 0``: zero points executed).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": 2,
        "backend": backend,
        "rows": [dict(zip(headers, row)) for row in rows],
        "cache": {
            "enabled": cache is not None,
            "hits": cache.stats.hits if cache is not None else 0,
            "misses": cache.stats.misses if cache is not None else 0,
        },
    }
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return path


def _run_crosscheck(args: argparse.Namespace) -> int:
    from repro.evaluation.crosscheck import (
        CROSSCHECK_HEADERS,
        cross_backend_check,
        crosscheck_rows,
    )
    from repro.evaluation.reporting import format_table

    if args.shots <= 0:
        print("error: --shots must be positive", file=sys.stderr)
        return 2
    if len(set(args.backends)) < 2:
        print("error: --backends needs at least two distinct backends",
              file=sys.stderr)
        return 2
    if args.lint:
        # Prove the programs legal before spending shots comparing them;
        # mirror the crosscheck compile (merging disabled, grid device).
        from repro.analysis.drivers import lint_workloads

        lint_errors = 0
        cell_count = 0
        for size in args.sizes:
            cells = lint_workloads(
                benchmarks=tuple(args.benchmarks), num_qubits=size,
                strategies=tuple(args.strategies), device_kind="grid",
                seed=args.seed,
                compiler_kwargs={"merge_single_qubit_gates": False},
            )
            cell_count += len(cells)
            for cell in cells:
                for finding in cell["report"].errors:
                    lint_errors += 1
                    print(f"lint: {cell['benchmark']}-{size} "
                          f"{cell['strategy']}: {finding.describe()}",
                          file=sys.stderr)
        if lint_errors:
            print(f"\nstatic verification FAILED: {lint_errors} error "
                  f"finding(s); skipping the dynamic comparison",
                  file=sys.stderr)
            return 1
        print(f"lint: {cell_count} cells statically verified\n")
    cache = _cache_from_args(args)
    rows = cross_backend_check(
        benchmarks=tuple(args.benchmarks), sizes=tuple(args.sizes),
        strategies=tuple(args.strategies), backends=tuple(args.backends),
        noise=args.noise, shots=args.shots, seed=args.seed,
        rel_tolerance=args.tolerance, workers=args.workers, cache=cache,
    )
    print(format_table(CROSSCHECK_HEADERS, crosscheck_rows(rows)))
    if args.json_output:
        path = Path(args.json_output)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": 1,
            "backends": list(args.backends),
            "noise": args.noise,
            "shots": args.shots,
            "seed": args.seed,
            "rows": [row.as_dict() for row in rows],
            "agree": all(row.agree for row in rows),
        }
        path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
        print(f"\nwrote {path}")
    disagreements = [row for row in rows if not row.agree]
    if disagreements:
        print(f"\n{len(disagreements)} of {len(rows)} cells disagree across "
              "backends:", file=sys.stderr)
        for row in disagreements:
            print(f"  {row.benchmark}-{row.num_qubits} {row.strategy}: "
                  + " ".join(f"{name}={result.success_probability:.4f}"
                             for name, result in row.results), file=sys.stderr)
        return 1
    print(f"\nall {len(rows)} cells agree: the backends' independent EPS "
          "estimates are statistically consistent")
    return 0


def _store_from_args(args: argparse.Namespace):
    from repro.runner.cache import default_cache_dir
    from repro.store.artifacts import ArtifactStore

    return ArtifactStore(Path(args.store_dir) if args.store_dir else default_cache_dir())


def _run_store(args: argparse.Namespace) -> int:
    if args.lint and args.action != "verify":
        print(f"error: --lint applies only to 'store verify', not "
              f"'store {args.action}'", file=sys.stderr)
        return 2
    from repro.evaluation.reporting import format_table

    store = _store_from_args(args)
    if args.action == "stats":
        stats = store.stats()
        if args.json_output:
            print(json.dumps({"root": str(store.root), **stats.as_dict()}, indent=2))
        else:
            print(format_table(["property", "value"], [
                ["directory", str(store.root)],
                ["blobs", stats.blobs],
                ["blob KiB", stats.blob_bytes / 1024.0],
                ["refs", stats.refs],
                ["manifests", stats.manifests],
            ]))
        return 0
    if args.action == "gc":
        report = store.gc()
        if args.json_output:
            print(json.dumps({"root": str(store.root), **report.as_dict()}, indent=2))
        else:
            print(f"removed {report.removed_blobs} unreferenced blobs "
                  f"({report.reclaimed_bytes / 1024.0:.1f} KiB) and "
                  f"{report.removed_temp_files} stale temp files; "
                  f"kept {report.kept_blobs} referenced blobs")
        return 0
    report = store.verify()
    lint_report = None
    lint_counters = None
    if args.lint:
        from repro.analysis.drivers import lint_store

        lint_report, lint_counters = lint_store(store)
    if args.json_output:
        payload = {"root": str(store.root), **report.as_dict()}
        if lint_report is not None:
            # Additive key: the default verify schema stays byte-compatible
            # with what the CI validate-artifacts gate asserts on.
            payload["lint"] = {**lint_counters, **lint_report.as_dict()}
        print(json.dumps(payload, indent=2))
    else:
        print(f"checked {report.checked_blobs} blobs, {report.checked_refs} refs, "
              f"{report.checked_manifests} manifests in {store.root}")
        for issue in report.issues:
            print(f"  {issue['kind']}: {issue['path']} — {issue['detail']}",
                  file=sys.stderr)
        print("store verified: every blob re-hashes and every manifest validates"
              if report.ok else f"{len(report.issues)} issues found", flush=True)
        if lint_report is not None:
            for finding in lint_report.findings:
                print(f"  {finding.describe()}",
                      file=sys.stderr if finding.severity == "error"
                      else sys.stdout)
            print(f"lint: statically verified {lint_counters['artifacts']} "
                  f"compiled artifacts across {lint_counters['manifests']} "
                  f"manifests ({lint_counters['skipped']} program-free blobs "
                  f"skipped): "
                  + ("clean" if lint_report.ok
                     else f"{len(lint_report.errors)} error finding(s)"),
                  flush=True)
    ok = report.ok and (lint_report is None or lint_report.ok)
    return 0 if ok else 1


def _submit_plan_from_args(args: argparse.Namespace) -> SweepPlan:
    from repro.runner.plan import SweepPlan
    from repro.runner.records import DeviceSpec

    return SweepPlan.cartesian(
        tuple(args.benchmarks), tuple(args.sizes), tuple(args.strategies),
        device=DeviceSpec(kind=args.device), seed=args.seed,
        backend=getattr(args, "backend", "trajectory"),
    )


def _run_submit(args: argparse.Namespace) -> int:
    from repro.evaluation.reporting import SWEEP_HEADERS, flat_results_to_rows, format_table
    from repro.service.spool import job_results, submit_job, wait_for_job

    plan = _submit_plan_from_args(args)
    job_id = submit_job(args.spool, plan)
    if args.quiet:
        print(job_id)
    else:
        print(f"submitted {plan.describe()}")
        print(f"job {job_id} spooled at {args.spool}; "
              f"poll {Path(args.spool) / 'status' / (job_id + '.json')}")
    if not args.wait:
        return 0
    try:
        document = wait_for_job(args.spool, job_id, timeout=args.timeout)
    except TimeoutError as error:
        print(f"error: {error} (is a server running? try: repro serve "
              f"--spool {args.spool})", file=sys.stderr)
        return 1
    if document.get("state") != "done":
        print(f"error: job {job_id} failed: {document.get('error')}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"job {job_id} done: {document['cache_hits']} store hits, "
              f"{document['executed']} executed, {document['deduped']} deduped "
              f"in {document['seconds']:.2f}s (manifest {document['manifest']})")
        results = job_results(_store_from_args(args), document["manifest"])
        print(format_table(SWEEP_HEADERS, flat_results_to_rows(results)))
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service.spool import serve_forever, serve_once

    store = _store_from_args(args)
    if args.once:
        statuses = serve_once(args.spool, store, workers=args.workers)
        for document in statuses:
            print(f"job {document['job_id']}: {document['state']} "
                  f"({document['cache_hits']} store hits, {document['executed']} "
                  f"executed, {document['deduped']} deduped, "
                  f"{document['seconds']:.2f}s)")
        print(f"served {len(statuses)} jobs from {args.spool} into {store.root}")
        return 0 if all(s["state"] == "done" for s in statuses) else 1
    print(f"serving {args.spool} into {store.root} "
          f"(workers={args.workers}); ctrl-c to stop")
    served = serve_forever(args.spool, store, workers=args.workers,
                           poll_interval=args.poll_interval)
    print(f"served {served} jobs")
    return 0


def _run_table1(_args: argparse.Namespace) -> int:
    from repro.evaluation.experiments import table1_durations
    from repro.evaluation.reporting import format_table

    rows = []
    for group, gates in table1_durations().items():
        for name, duration in gates.items():
            rows.append([group, name, duration])
    print(format_table(["group", "gate", "duration_ns"], rows))
    return 0


def _figure_rows(name: str, workers: int = 1, cache=None) -> tuple[list[str], list[list]]:
    from repro.evaluation.experiments import (
        figure3_state_evolution,
        figure4_exhaustive,
        figure8_gate_distribution,
        figure9_qubit_error_sweep,
        figure11_t1_improvement,
        figure12_t1_ratio_sweep,
        figure13_topologies,
    )

    engine = {"workers": workers, "cache": cache}
    if name == "fig3":
        traces = figure3_state_evolution(steps=11)
        rows = []
        for gate, trace in traces.items():
            for time, populations in zip(trace["times"], trace["populations"]):
                rows.append([gate, round(float(time), 3)] + [round(float(p), 4) for p in populations])
        width = max(len(row) for row in rows) - 2
        return ["gate", "t/T"] + [f"p{i}" for i in range(width)], [
            row + [""] * (2 + width - len(row)) for row in rows
        ]
    if name == "fig4":
        data = figure4_exhaustive(**engine)
        rows = [
            [label, entry["report"].gate_eps, entry["report"].coherence_eps, str(entry["pairs"])]
            for label, entry in data.items()
        ]
        return ["selection", "gate_eps", "coherence_eps", "pairs"], rows
    if name == "fig8":
        distributions = figure8_gate_distribution(**engine)
        categories = list(next(iter(distributions.values())).keys())
        rows = [[strategy] + [histogram[c] for c in categories]
                for strategy, histogram in distributions.items()]
        return ["strategy"] + categories, rows
    if name == "fig9":
        sweep = figure9_qubit_error_sweep(**engine)
        rows = []
        for bench, by_scale in sweep.items():
            for scale, cell in by_scale.items():
                for strategy, result in cell.items():
                    rows.append([bench, scale, strategy, result.report.gate_eps])
        return ["benchmark", "error_scale", "strategy", "gate_eps"], rows
    if name == "fig11":
        improved = figure11_t1_improvement(**engine)
        rows = []
        for bench, by_strategy in improved.items():
            for strategy, result in by_strategy.items():
                rows.append([bench, strategy, result.report.coherence_eps])
        return ["benchmark", "strategy", "coherence_eps_10x"], rows
    if name == "fig12":
        sweep = figure12_t1_ratio_sweep(**engine)
        rows = []
        for bench, data in sweep.items():
            for ratio, point in data["series"].items():
                rows.append([bench, round(ratio, 3), point.report.total_eps,
                             data["baseline"].report.total_eps])
        return ["benchmark", "t1_ratio", "total_eps", "total_eps_qubit_only"], rows
    if name == "fig13":
        results = figure13_topologies(**engine)
        rows = []
        for bench, by_topology in results.items():
            for topology, stats in by_topology.items():
                rows.append([bench, topology, stats["min"], stats["mean"], stats["max"]])
        return ["benchmark", "topology", "min", "mean", "max"], rows
    raise KeyError(f"unknown figure {name!r}")


def _run_figure(args: argparse.Namespace) -> int:
    from repro.evaluation.reporting import format_table, save_csv

    headers, rows = _figure_rows(args.name, workers=args.workers,
                                 cache=_cache_from_args(args))
    print(format_table(headers, rows))
    if args.output:
        path = save_csv(args.output, headers, rows)
        print(f"\nwrote {path}")
    return 0


_HANDLERS = {
    "compile": _run_compile,
    "lint": _run_lint,
    "sweep": _run_sweep,
    "simulate": _run_simulate,
    "validate-eps": _run_validate_eps,
    "crosscheck": _run_crosscheck,
    "table1": _run_table1,
    "figure": _run_figure,
    "store": _run_store,
    "submit": _run_submit,
    "serve": _run_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.backends.registry import BackendError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BackendError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
