"""Each entry point loads only its own layer.

scipy stays out of the import path and the common CLI verbs: only pulse
optimisation (``PulseOptimizer.propagate``/``optimize``) and the
fractional-power branch of ``cx_state_evolution`` need it, so they import
it in the function body.  The store, the spool and a stored result's
unpickling load neither numpy nor networkx nor the noise or compression
packages: package ``__init__``s re-export lazily and ``Topology`` pickles
as plain data.  Each case runs in a fresh interpreter, because the test
process itself has long since loaded everything.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import cli

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN_HELP = Path(__file__).parent / "golden" / "cli_help.json"

PACKAGES = ["repro"] + sorted(
    f"repro.{module.name}" for module in pkgutil.iter_modules(repro.__path__) if module.ispkg
)

ASSERT_NO_SCIPY = (
    "import sys\n"
    "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
    "assert not loaded, loaded\n"
)


def _loaded(prefixes: tuple[str, ...]) -> str:
    """Code asserting no module under ``prefixes`` is loaded."""
    return (
        "import sys\n"
        f"loaded = sorted(m for m in sys.modules if m.startswith({prefixes!r}))\n"
        "assert not loaded, loaded[:5]\n"
    )


#: What the serving layer must not load: the compile and noise stacks.
NOT_SERVING = ("numpy", "networkx", "repro.noise", "repro.compression")


def _run(code: str, cwd: Path, env: dict | None = None) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "REPRO_CACHE_DIR"} | (env or {})
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


@pytest.mark.parametrize(
    "statement",
    [
        "import repro.cli",
        "import repro",
        "from repro.pulses import *\nfrom repro.pulses import PulseOptimizer",
        "import repro.simulation",
    ],
    ids=["repro.cli", "repro", "repro.pulses-star", "repro.simulation"],
)
def test_import_leaves_scipy_unloaded(statement, tmp_path):
    result = _run(statement + "\n" + ASSERT_NO_SCIPY, tmp_path)
    assert result.returncode == 0, result.stderr


def test_compile_and_simulate_leave_scipy_unloaded(tmp_path):
    code = """
        from repro.cli import main
        assert main(["compile", "--benchmark", "bv", "--qubits", "4",
                     "--strategy", "eqm"]) == 0
        assert main(["simulate", "--benchmark", "bv", "--qubits", "4",
                     "--strategy", "eqm", "--shots", "200"]) == 0
    """
    result = _run(textwrap.dedent(code) + ASSERT_NO_SCIPY, tmp_path)
    assert result.returncode == 0, result.stderr
    assert "simulated success" in result.stdout


def test_pulse_names_resolve_and_scipy_loads_on_first_propagate(tmp_path):
    code = """
        import sys
        import numpy as np
        import repro.pulses as pulses

        for name in pulses.__all__:
            assert getattr(pulses, name) is not None, name
        assert "scipy" not in sys.modules
        system = pulses.TransmonSystem(num_transmons=1, logical_levels=2,
                                       guard_levels=1)
        optimizer = pulses.PulseOptimizer(system, segments=2)
        assert "scipy" not in sys.modules
        unitary = optimizer.propagate(np.zeros((2, 1)), duration_ns=1.0)
        assert "scipy.linalg" in sys.modules
        assert np.allclose(unitary.conj().T @ unitary, np.eye(unitary.shape[0]))
    """
    result = _run(code, tmp_path)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "statement",
    ["import repro", "import repro.cli",
     "from repro.store import ArtifactStore\nArtifactStore('store').stats()"],
    ids=["repro", "repro.cli", "repro.store"],
)
def test_import_leaves_numpy_unloaded(statement, tmp_path):
    result = _run(statement + "\n" + _loaded(("numpy", "networkx")), tmp_path)
    assert result.returncode == 0, result.stderr


def test_spool_loads_no_compile_or_noise_stack(tmp_path):
    result = _run("import repro.service.spool\n" + _loaded(NOT_SERVING), tmp_path)
    assert result.returncode == 0, result.stderr


def test_a_stored_result_unpickles_without_networkx(tmp_path):
    from repro.runner import DeviceSpec, SweepPoint

    result = SweepPoint("qft", 6, "fq", device=DeviceSpec(kind="grid")).execute()
    blob = tmp_path / "result.pkl"
    blob.write_bytes(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
    code = f"""
        import pickle
        result = pickle.loads(open({str(blob)!r}, "rb").read())
        compiled = result.compiled
        assert compiled.num_ops == {result.compiled.num_ops}
        assert compiled.device.topology.edges() == {result.compiled.device.topology.edges()!r}
        assert compiled.device.topology.center_unit() == {result.compiled.device.topology.center_unit()}
    """
    run = _run(textwrap.dedent(code) + _loaded(NOT_SERVING), tmp_path)
    assert run.returncode == 0, run.stderr


def test_store_stats_loads_no_numpy(tmp_path):
    code = f"""
        from repro.cli import main
        assert main(["store", "stats", "--dir", {str(tmp_path / "store")!r}]) == 0
    """
    result = _run(textwrap.dedent(code) + _loaded(("numpy", "networkx")), tmp_path)
    assert result.returncode == 0, result.stderr
    assert "blobs" in result.stdout


def test_every_exported_name_resolves(tmp_path):
    code = f"""
        import importlib, types
        for package in {PACKAGES!r}:
            module = importlib.import_module(package)
            assert module.__all__, package
            namespace = {{}}
            exec(f"from {{package}} import *", namespace)
            assert set(module.__all__) <= set(namespace), package
            try:
                module.no_such_name
            except AttributeError as error:
                assert "no_such_name" in str(error)
            else:
                raise AssertionError(package)
        # with every module loaded, no export is shadowed by a submodule
        # of the same name
        for package in {PACKAGES!r}:
            module = importlib.import_module(package)
            for name in module.__all__:
                value = getattr(module, name)
                assert not isinstance(value, types.ModuleType), (package, name)
    """
    result = _run(textwrap.dedent(code), tmp_path)
    assert result.returncode == 0, result.stderr


def test_version_matches_pyproject():
    # a regex, not tomllib: the CI matrix includes Python 3.10
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    match = re.search(r'^\[project\][^\[]*?^version = "([^"]+)"', pyproject, re.M | re.S)
    assert match is not None
    assert repro.__version__ == match.group(1)


def _verbs(parser) -> dict:
    """Each verb's subparser."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_help_text_matches_the_golden_copy(tmp_path):
    code = """
        import argparse, json
        from repro.cli import build_parser
        parser = build_parser()
        verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        texts = {"": parser.format_help()}
        texts.update({verb: sub.format_help() for verb, sub in verbs.choices.items()})
        print(json.dumps(texts))
    """
    env = {"COLUMNS": "80"}
    result = _run(textwrap.dedent(code) + _loaded(("numpy", "networkx")), tmp_path, env)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == json.loads(GOLDEN_HELP.read_text())


def test_parser_choices_equal_the_registries():
    from repro.backends import list_backends
    from repro.compression import _STRATEGIES
    from repro.noise import NOISE_PRESETS
    from repro.workloads.registry import _BUILDERS

    strategies, benchmarks = sorted(_STRATEGIES), sorted(_BUILDERS)
    registries = {
        "strategy": strategies, "strategies": strategies,
        "benchmark": benchmarks, "benchmarks": benchmarks,
        "workload": benchmarks, "noise": sorted(NOISE_PRESETS),
        "backend": list_backends(), "backends": list_backends(),
    }
    seen = set()
    for verb, sub in _verbs(cli.build_parser()).items():
        for action in sub._actions:
            if action.dest in registries:
                assert tuple(action.choices) == tuple(registries[action.dest]), (verb, action.dest)
                seen.add(action.dest)
    assert seen == set(registries)
