"""scipy stays out of the import path and the common CLI verbs.

Only pulse optimisation (``PulseOptimizer.propagate``/``optimize``) and the
fractional-power branch of ``cx_state_evolution`` need scipy, so they import
it in the function body.  Each case runs in a fresh interpreter, because
the test process itself has long since loaded scipy.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

ASSERT_NO_SCIPY = (
    "import sys\n"
    "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
    "assert not loaded, loaded\n"
)


def _run(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
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
