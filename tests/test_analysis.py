"""Tests for the static analysis subsystem: verifier passes and source lint."""

import dataclasses
import json
import pickle
import types
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisReport,
    Finding,
    PROGRAM_PASSES,
    lint_source_text,
    lint_paths,
    lint_workloads,
    verify_compiled,
)
from repro.arch import Device, grid_topology
from repro.cli import main
from repro.compiler import QompressCompiler
from repro.compiler.result import PhysicalOp
from repro.compiler.scheduling import schedule_ops
from repro.compression import get_strategy
from repro.gates.styles import GateStyle
from repro.simulation.verify import VerificationError, register_dims
from repro.workloads import build_benchmark


def compile_benchmark(name, size, strategy="eqm", **kwargs):
    device = Device(topology=grid_topology(2, 3))
    compiler = QompressCompiler(device, get_strategy(strategy), **kwargs)
    return compiler.compile(build_benchmark(name, size))


def reforged(compiled, ops, reschedule=True):
    """A fresh artifact with replaced ops (and consistent times by default).

    Re-running the compiler's own scheduler keeps the corrupt program
    legal under the schedule pass, so each fixture trips exactly the
    pass it is built for.  A fresh dataclass instance also drops the
    schedule/residency memo attributes a cached artifact may carry.
    """
    if reschedule:
        for op in ops:
            op.start_ns = -1.0
        ops = schedule_ops(ops, merge_singles=False)
    return dataclasses.replace(compiled, ops=ops)


def error_passes(report):
    return {finding.pass_name for finding in report.errors}


def stray_enc_artifact():
    """A bv/eqm program with an appended enc that closes no dec."""
    compiled = compile_benchmark("bv", 3)
    dims = register_dims(compiled)
    quad = next(u for u, d in enumerate(dims) if d == 4)
    bare = next(u for u, d in enumerate(dims) if d == 2)
    pair = compiled.compressed_pairs[0]
    ops = list(compiled.ops) + [
        PhysicalOp(gate="enc", units=(bare, quad), logical_qubits=pair,
                   duration_ns=100.0, is_communication=True,
                   slots=((bare, 0), (quad, 1))),
    ]
    return reforged(compiled, ops)


class TestCorruptFixtures:
    """Each known-bad program is caught by exactly its pass."""

    def test_unmatched_enc_is_caught_by_encdec(self):
        report = verify_compiled(stray_enc_artifact())
        assert not report.ok
        assert error_passes(report) == {"encdec"}
        assert any("unmatched enc" in f.message for f in report.errors)

    def test_gate_on_decoded_qubit_is_caught_by_residency(self):
        compiled = compile_benchmark("teleport", 3)
        ops = list(compiled.ops)
        dec_index = next(
            i for i, op in enumerate(ops)
            if op.style is GateStyle.DECODE and not op.moves
        )
        dec = ops[dec_index]
        ejected = dec.logical_qubits[1]
        ejected_slot = dec.slots[0]
        ops.insert(dec_index + 1, PhysicalOp(
            gate="x", units=(ejected_slot[0],), logical_qubits=(ejected,),
            duration_ns=35.0, slots=(ejected_slot,),
        ))
        report = verify_compiled(reforged(compiled, ops))
        assert not report.ok
        assert error_passes(report) == {"residency"}
        assert any("decoded qubit" in f.message for f in report.errors)

    def test_condition_on_unwritten_bit_is_caught_by_classical(self):
        compiled = compile_benchmark("bv", 3, strategy="qubit_only")
        ops = list(compiled.ops)
        target = next(
            i for i, op in enumerate(ops)
            if op.gate not in ("measure", "measure_mid", "reset")
        )
        ops[target] = dataclasses.replace(ops[target], condition=((99,), 1))
        report = verify_compiled(reforged(compiled, ops))
        assert not report.ok
        assert error_passes(report) == {"classical"}
        assert any(f.clbit == 99 for f in report.errors)

    def test_overlapping_ops_are_caught_by_schedule(self):
        compiled = compile_benchmark("bv", 3, strategy="qubit_only")
        ops = [dataclasses.replace(op) for op in compiled.ops]
        first, second = next(
            (i, j)
            for i, a in enumerate(ops) for j, b in enumerate(ops[i + 1:], i + 1)
            if set(a.units) & set(b.units) and b.start_ns >= a.end_ns
        )
        ops[second].start_ns = ops[first].start_ns
        report = verify_compiled(reforged(compiled, ops, reschedule=False))
        assert not report.ok
        assert error_passes(report) == {"schedule"}
        assert any("busy until" in f.message for f in report.errors)

    def test_corrupt_cached_kernel_is_caught_by_kernel_pass(self):
        from repro.analysis.passes import _placeholder_unitaries
        from repro.noise.kernel import _build_schedule

        compiled = compile_benchmark("bv", 3, strategy="qubit_only")
        dims = register_dims(compiled)
        schedule = _build_schedule(
            compiled, dims, _placeholder_unitaries(compiled, dims)
        )
        # A genuine cached schedule verifies clean...
        compiled._schedule_memo = {("trajectory-kernel", dims): schedule}
        assert verify_compiled(compiled).ok
        # ...a mis-sized one is an error from the kernel pass alone.
        compiled._schedule_memo = {
            ("trajectory-kernel", dims): dataclasses.replace(
                schedule, num_ops=schedule.num_ops + 1
            )
        }
        report = verify_compiled(compiled)
        assert not report.ok
        assert error_passes(report) == {"kernel"}

    @pytest.mark.parametrize("corruption", ["foreign-table", "dense-with-table", "dropped"])
    def test_corrupt_move_table_is_an_error_at_its_op(self, corruption):
        from repro.noise import NoiseSpec, TrajectoryEngine
        from repro.noise.kernel import FusedRun, UnitaryStep

        compiled = compile_benchmark("bv", 3, merge_single_qubit_gates=False)
        dims = register_dims(compiled)
        TrajectoryEngine(compiled, NoiseSpec.from_preset("table1"), track_state=True)
        key = ("trajectory-kernel", dims)
        schedule = compiled._schedule_memo[key]
        assert verify_compiled(compiled).ok
        (run,) = schedule.segments
        assert isinstance(run, FusedRun)
        steps = [item for item in run.items if type(item) is UnitaryStep]
        dense = next(step for step in steps if step.moves is None)
        monomial = [step for step in steps if step.moves is not None]
        # two monomial steps with different tables: a CX and an X, say
        first = monomial[0]
        other = next(s for s in monomial if s.plan.sub_dim != first.plan.sub_dim
                     or s.moves.entries != first.moves.entries)
        victim, moves = {
            "foreign-table": (first, other.moves),
            "dense-with-table": (dense, first.moves),
            "dropped": (first, None),
        }[corruption]
        items = tuple(
            dataclasses.replace(item, moves=moves) if item is victim else item
            for item in run.items
        )
        compiled._schedule_memo = {
            key: dataclasses.replace(
                schedule, segments=(dataclasses.replace(run, items=items),)
            )
        }
        report = verify_compiled(compiled)
        assert not report.ok
        assert error_passes(report) == {"kernel"}
        assert {f.op_index for f in report.errors} == {victim.op_index}
        assert all("move table" in f.message for f in report.errors)


class TestCleanPrograms:
    @pytest.mark.parametrize("strategy", ["eqm", "rb", "fq"])
    @pytest.mark.parametrize("reencode", [True, False])
    def test_teleport_family_verifies_clean(self, strategy, reencode):
        compiled = compile_benchmark(
            "teleport", 3, strategy=strategy, reencode_after_measure=reencode
        )
        report = verify_compiled(compiled)
        assert report.ok, [f.describe() for f in report.errors]
        assert tuple(report.passes_run) == tuple(PROGRAM_PASSES)

    def test_pass_subset_selection(self):
        compiled = compile_benchmark("bv", 3)
        report = verify_compiled(compiled, passes=("encdec", "schedule"))
        assert report.passes_run == ("encdec", "schedule")
        with pytest.raises(KeyError):
            verify_compiled(compiled, passes=("nope",))

    def test_lint_workloads_cells_are_clean(self):
        cells = lint_workloads(benchmarks=("bv", "teleport"),
                               strategies=("qubit_only", "eqm", "fq"))
        assert len(cells) == 6
        assert all(cell["report"].ok for cell in cells)


class TestReportModel:
    def test_report_json_round_trip(self):
        report = verify_compiled(stray_enc_artifact())
        restored = AnalysisReport.from_dict(
            json.loads(json.dumps(report.as_dict()))
        )
        assert restored == report

    def test_finding_round_trip_drops_no_anchors(self):
        finding = Finding(severity="warning", pass_name="schedule",
                          message="m", op_index=4, clbit=2)
        assert Finding.from_dict(finding.as_dict()) == finding
        assert "qubit" not in finding.as_dict()

    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError):
            Finding(severity="fatal", pass_name="encdec", message="m")

    def test_raise_if_errors_raises_verification_error(self):
        report = verify_compiled(stray_enc_artifact())
        with pytest.raises(VerificationError):
            report.raise_if_errors()
        # The rebased exception is a real error, not a strippable assert.
        assert not issubclass(VerificationError, AssertionError)
        assert issubclass(VerificationError, Exception)


class TestCompilerIntegration:
    def test_verify_true_accepts_clean_compiles(self):
        compiled = compile_benchmark("teleport", 3, verify=True)
        assert compiled.ops

    def test_verify_true_rejects_corrupt_programs(self):
        device = Device(topology=grid_topology(2, 3))
        compiler = QompressCompiler(device, get_strategy("eqm"), verify=True)
        with pytest.raises(VerificationError):
            compiler._verified(stray_enc_artifact())


RNG_SNIPPETS = [
    "import numpy as np\ndef f():\n    return np.random.rand(3)\n",
    "from numpy.random import default_rng\ndef f():\n    return default_rng()\n",
    "import random\ndef f():\n    return random.random()\n",
]

CLEAN_SNIPPETS = [
    "from numpy.random import default_rng\ndef f(seed):\n    return default_rng(seed)\n",
    "import random\ndef f(seed):\n    return random.Random(seed)\n",
    "import time\ndef run():\n    return time.time()\n",
    "import json\ndef content_key(d):\n    return json.dumps(d, sort_keys=True)\n",
]


class TestSourceLint:
    @pytest.mark.parametrize("snippet", RNG_SNIPPETS)
    def test_unseeded_rng_flagged(self, snippet):
        findings = lint_source_text(snippet, "mod.py")
        assert any(f.pass_name == "unseeded-rng" and f.severity == "error"
                   for f in findings)

    @pytest.mark.parametrize("snippet", CLEAN_SNIPPETS)
    def test_clean_snippets_pass(self, snippet):
        assert lint_source_text(snippet, "mod.py") == []

    def test_wallclock_in_key_path_flagged(self):
        snippet = "import time\ndef content_key():\n    return time.time()\n"
        findings = lint_source_text(snippet, "mod.py")
        assert any(f.pass_name == "wallclock-key-path" for f in findings)

    def test_set_iteration_in_key_path_flagged(self):
        snippet = "def make_key(items):\n    for x in set(items):\n        pass\n"
        findings = lint_source_text(snippet, "mod.py")
        assert any(f.pass_name == "unordered-key-path" for f in findings)

    def test_unsorted_json_dumps_in_key_path_flagged(self):
        snippet = "import json\ndef payload_for(d):\n    return json.dumps(d)\n"
        findings = lint_source_text(snippet, "mod.py")
        assert any(f.pass_name == "unordered-key-path" for f in findings)

    def test_backend_contract_flagged(self):
        snippet = "class B:\n    def run_noise_point(self, point):\n        return 42\n"
        findings = lint_source_text(snippet, "mod.py")
        assert any(f.pass_name == "backend-contract" for f in findings)

    def test_backend_contract_satisfied(self):
        snippet = (
            "from repro.backends.contract import ensure_noisy_result\n"
            "class B:\n"
            "    def run_noise_point(self, point):\n"
            "        return ensure_noisy_result(self._run(point))\n"
        )
        assert lint_source_text(snippet, "mod.py") == []

    @pytest.mark.parametrize("body", [
        "return [self._run(point) for point in points]",
        "return list(map(ensure_noisy_result, points))",
        "results = [ensure_noisy_result(p) for p in points]\n        return results",
        "pass",
    ], ids=["unvalidated-element", "not-a-comprehension", "named-list", "no-return"])
    def test_batch_backend_contract_flagged(self, body):
        snippet = (
            "from repro.backends.contract import ensure_noisy_result\n"
            "class B:\n"
            "    def run_noise_points(self, points):\n"
            f"        {body}\n"
        )
        findings = lint_source_text(snippet, "mod.py")
        assert [f.pass_name for f in findings] == ["backend-contract"]

    @pytest.mark.parametrize("element", [
        "ensure_noisy_result(self._run(point), 'b')",
        "self.run_noise_point(point)",
    ], ids=["validated", "point-entry"])
    def test_batch_backend_contract_satisfied(self, element):
        snippet = (
            "from repro.backends.contract import ensure_noisy_result\n"
            "class B:\n"
            "    def run_noise_points(self, points):\n"
            f"        return [{element} for point in points]\n"
        )
        assert lint_source_text(snippet, "mod.py") == []

    def test_syntax_error_reported_not_raised(self):
        findings = lint_source_text("def f(:\n", "mod.py")
        assert any(f.pass_name == "parse" for f in findings)

    def test_package_source_tree_is_clean(self):
        tree = Path(__file__).resolve().parents[1] / "src" / "repro"
        report = lint_paths([tree])
        assert report.ok, [f.describe() for f in report.errors]


class TestCli:
    def test_lint_clean_exit_zero(self, capsys):
        assert main(["lint", "--workload", "bv",
                     "--strategies", "qubit_only", "eqm"]) == 0
        assert "statically verified" in capsys.readouterr().out

    def test_lint_json_document(self, capsys):
        assert main(["lint", "--workload", "bv", "--strategies", "eqm",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["errors"] == 0
        assert [cell["strategy"] for cell in doc["cells"]] == ["eqm"]

    def test_lint_missing_qasm_exit_two(self, tmp_path, capsys):
        assert main(["lint", "--qasm", str(tmp_path / "missing.qasm")]) == 2
        assert "cannot lint" in capsys.readouterr().err

    def test_lint_qubits_without_workload_rejected(self, tmp_path, capsys):
        qasm = tmp_path / "x.qasm"
        qasm.write_text("OPENQASM 2.0;\n")
        assert main(["lint", "--qasm", str(qasm), "--qubits", "4"]) == 2

    def test_compile_verify_exit_zero_on_clean_program(self, capsys):
        assert main(["compile", "--benchmark", "bv", "--qubits", "3",
                     "--strategy", "eqm", "--verify"]) == 0
        assert "statically verified" in capsys.readouterr().out

    def test_crosscheck_lint_verifies_before_comparing(self, capsys):
        assert main(["crosscheck", "--benchmarks", "bv", "--sizes", "3",
                     "--strategies", "eqm", "--shots", "100", "--lint"]) == 0
        out = capsys.readouterr().out
        assert "statically verified" in out
        assert out.index("statically verified") < out.index("agree")

    @staticmethod
    def _store_holding(root, artifact):
        """A store whose one manifest references ``artifact``'s blob."""
        from repro.store import ArtifactStore
        from repro.store.manifest import build_manifest

        store = ArtifactStore(root)
        digest = store.put_object("0" * 64, artifact)
        store.write_manifest(build_manifest(
            kind="sweep", plan_fp="1" * 64, code_fp="2" * 64,
            points=[{"key": "0" * 64, "blob": digest, "cached": False}],
            total_seconds=0.0, executed=1, cache_hits=0, deduped=0,
        ))
        return store

    def test_store_verify_lint_flags_corrupt_artifact(self, tmp_path, capsys):
        artifact = types.SimpleNamespace(compiled=stray_enc_artifact())
        store = self._store_holding(tmp_path / "store", artifact)
        # The hash-level audit alone passes: the blob re-hashes fine.
        assert main(["store", "verify", "--dir", str(store.root)]) == 0
        capsys.readouterr()
        # The semantic lint catches the illegal program inside it.
        assert main(["store", "verify", "--dir", str(store.root),
                     "--lint", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True  # default schema untouched
        assert doc["lint"]["ok"] is False
        assert doc["lint"]["artifacts"] == 1

    def test_store_verify_lint_flags_corrupt_packed_payload(self, tmp_path, capsys):
        # The blob re-hashes and its envelope unpickles; only decoding the
        # packed op stream fails, which the lint must report, not crash on.
        compiled = pickle.loads(pickle.dumps(compile_benchmark("bv", 3)))
        compiled._packed["ops"] = b"not a pickle"
        store = self._store_holding(tmp_path / "store",
                                    types.SimpleNamespace(compiled=compiled))
        assert main(["store", "verify", "--dir", str(store.root)]) == 0
        capsys.readouterr()
        assert main(["store", "verify", "--dir", str(store.root),
                     "--lint", "--json"]) == 1
        lint = json.loads(capsys.readouterr().out)["lint"]
        assert lint["artifacts"] == 0
        assert len(lint["findings"]) == 1
        assert "does not unpickle" in lint["findings"][0]["message"]
