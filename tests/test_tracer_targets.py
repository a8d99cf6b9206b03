"""The benchmark's span tracer sees every call it is meant to time.

``perfbench/tracer.py`` replaces each traced function at the module
attribute it names.  A caller that copied the function into its own
namespace at import time keeps the original, so its calls drop out of the
trace while the target still resolves.  These tests import the layers
first, as a benchmark child does before it installs the tracer, and then
check that the calls are recorded.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _spans(tracer, name: str) -> int:
    return sum(1 for span in tracer.spans if span[0] == name)


@pytest.fixture
def tracer():
    import repro.backends.external  # noqa: F401
    import repro.backends.replay  # noqa: F401
    import repro.backends.trajectory  # noqa: F401
    import repro.noise.points  # noqa: F401

    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer("test")
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_backend_compiles_record_an_eps_span(tracer):
    from repro.backends import get_backend
    from repro.runner import SweepPoint

    point = SweepPoint("bv", 4, "eqm", seed=90210)
    # fresh instances: an entry in a shared compile memo would record no span
    for name in ("trajectory", "external-sim"):
        type(get_backend(name))().compile_point(point)
    assert _spans(tracer, "metrics.eps") == 2


def test_point_keys_record_a_point_key_span(tracer, tmp_path):
    from repro.backends.replay import store_miss
    from repro.noise import NoiseSpec
    from repro.noise.points import NoisePoint
    from repro.runner import SweepPoint

    point = SweepPoint("bv", 4, "qubit_only")
    NoisePoint(point, NoiseSpec(), shots=10).key()
    # a NoisePoint key is one span; its compile point's payload is not keyed
    assert _spans(tracer, "runner.point_key") == 1
    store_miss(tmp_path, point)
    assert _spans(tracer, "runner.point_key") == 2
