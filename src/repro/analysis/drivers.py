"""Batch drivers for the static verifier: workloads, QASM files, stores.

These are the entry points the CLI and CI wire up:

* :func:`lint_workloads` — compile registry benchmarks across strategies
  and statically verify every resulting program.  Because verification is
  linear in op count (no simulation), the whole registry × all seven
  canonical strategies finishes in seconds — the coverage no
  replay-based gate can afford.
* :func:`lint_qasm` — same, for one OpenQASM 2.0 source file.
* :func:`lint_store` — walk an artifact store's manifests and statically
  verify every compiled circuit referenced by them, so ``repro store
  verify --lint`` catches semantically-corrupt programs, not just hash
  mismatches.
"""

from __future__ import annotations

import pickle
from pathlib import Path

from repro.analysis.passes import PROGRAM_PASSES, verify_compiled
from repro.analysis.report import AnalysisReport, Finding
from repro.circuits.qasm import parse_qasm
from repro.compiler.pipeline import QompressCompiler
from repro.compression.registry import get_strategy
from repro.runner.records import make_device
from repro.workloads.names import BENCHMARK_NAMES
from repro.workloads.registry import MINIMUM_SIZES, build_benchmark

#: The seven canonical strategies ``repro lint`` sweeps by default.
CANONICAL_STRATEGIES: tuple[str, ...] = (
    "qubit_only", "fq", "eqm", "rb", "awe", "pp", "ec",
)


def _verify_circuit(circuit, device, strategy_name: str,
                    compiler_kwargs: dict | None) -> AnalysisReport:
    """Compile one circuit under one strategy and statically verify it."""
    try:
        strategy = get_strategy(strategy_name)
        compiler = QompressCompiler(device, strategy, **(compiler_kwargs or {}))
        compiled = compiler.compile(circuit)
    except Exception as error:  # noqa: BLE001 - a compile failure is a finding
        return AnalysisReport(
            subject=f"{circuit.name}/{strategy_name}",
            passes_run=("compile",),
            findings=(
                Finding(
                    severity="error", pass_name="compile",
                    message=f"compilation failed: {type(error).__name__}: {error}",
                ),
            ),
            context=(("circuit", circuit.name), ("strategy", strategy_name)),
        )
    return verify_compiled(compiled)


def lint_workloads(
    benchmarks: tuple[str, ...] | None = None,
    num_qubits: int | None = None,
    strategies: tuple[str, ...] | None = None,
    device_kind: str = "grid",
    seed: int = 0,
    compiler_kwargs: dict | None = None,
) -> list[dict]:
    """Statically verify registry workloads across compression strategies.

    Returns one cell dictionary per ``benchmark × strategy`` combination:
    ``{"benchmark", "qubits", "strategy", "report"}``.  Benchmarks
    default to the full registry at each benchmark's minimum sensible
    size; strategies default to :data:`CANONICAL_STRATEGIES`.
    """
    names = tuple(benchmarks) if benchmarks else tuple(BENCHMARK_NAMES)
    chosen = tuple(strategies) if strategies else CANONICAL_STRATEGIES
    cells: list[dict] = []
    for name in names:
        size = num_qubits if num_qubits is not None else MINIMUM_SIZES[name]
        circuit = build_benchmark(name, size, seed=seed)
        # Graph benchmarks may round the size up (e.g. binary welded trees
        # grow to whole tree levels): size the device to the real circuit.
        device = make_device(device_kind, max(size, circuit.num_qubits))
        for strategy in chosen:
            report = _verify_circuit(circuit, device, strategy, compiler_kwargs)
            cells.append({
                "benchmark": name,
                "qubits": size,
                "strategy": strategy,
                "report": report,
            })
    return cells


def lint_qasm(
    path: str | Path,
    strategies: tuple[str, ...] | None = None,
    device_kind: str = "grid",
    compiler_kwargs: dict | None = None,
) -> list[dict]:
    """Statically verify one OpenQASM 2.0 file across strategies."""
    path = Path(path)
    circuit = parse_qasm(path.read_text())
    if circuit.name == "qasm":
        circuit.name = path.stem
    device = make_device(device_kind, circuit.num_qubits)
    chosen = tuple(strategies) if strategies else CANONICAL_STRATEGIES
    cells: list[dict] = []
    for strategy in chosen:
        report = _verify_circuit(circuit, device, strategy, compiler_kwargs)
        cells.append({
            "benchmark": circuit.name,
            "qubits": circuit.num_qubits,
            "strategy": strategy,
            "report": report,
        })
    return cells


def lint_store(store) -> tuple[AnalysisReport, dict]:
    """Statically verify every compiled artifact a store's manifests reference.

    Walks each manifest's point entries, loads the referenced blobs and
    runs :func:`verify_compiled` on every object that carries a compiled
    circuit (``StrategyResult``-shaped artifacts).  Blobs are verified
    once even when several manifests reference them.  Returns the merged
    report plus ``{"manifests", "artifacts", "skipped"}`` counters.
    """
    findings: list[Finding] = []
    seen: set[str] = set()
    manifests = 0
    artifacts = 0
    skipped = 0
    for manifest_id in store.manifest_ids():
        manifests += 1
        manifest = store.read_manifest(manifest_id)
        for point in manifest.get("points", []):
            digest = point["blob"]
            if digest in seen:
                continue
            seen.add(digest)
            data = store.get_blob(digest)
            if data is None:
                findings.append(
                    Finding(
                        severity="error", pass_name="store",
                        message=f"manifest {manifest_id} references missing "
                                f"blob {digest[:12]}…",
                    )
                )
                continue
            try:
                obj = pickle.loads(data)
                compiled = getattr(obj, "compiled", None)
                if compiled is not None:
                    # decode the packed fields here, so a corrupt payload
                    # is this finding rather than a crash in the verifier
                    compiled.ops, compiled.lowered_circuit
            except Exception as error:  # noqa: BLE001 - corrupt blob is a finding
                findings.append(
                    Finding(
                        severity="error", pass_name="store",
                        message=f"blob {digest[:12]}… does not unpickle: {error}",
                    )
                )
                continue
            if compiled is None:
                skipped += 1  # shot-chunk results carry no program
                continue
            artifacts += 1
            report = verify_compiled(compiled)
            findings.extend(report.findings)
    report = AnalysisReport(
        subject=f"store {store.root}",
        passes_run=tuple(PROGRAM_PASSES),
        findings=tuple(findings),
        context=(("manifests", str(manifests)), ("artifacts", str(artifacts))),
    )
    return report, {"manifests": manifests, "artifacts": artifacts, "skipped": skipped}
