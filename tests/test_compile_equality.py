"""Golden compile-equality test: every op the compiler emits is pinned.

Each cell (registry benchmark x strategy x device x size, seed 1) is
compiled through the runner's :class:`~repro.runner.SweepPoint` path and
digested with the recipe of the benchmark's compile digest: SHA-256 over
the ``repr`` of every op's dataclass fields followed by the EPS report's
fields.  A cell that fails to compile digests its error instead, so a
change in which cells compile is caught too.

``tests/golden/compile_digests.json`` holds the expected digests.  A
performance change to mapping, routing or compression must leave every
digest unchanged; a deliberate change to what the compiler emits
regenerates the file with::

    PYTHONPATH=src python tests/test_compile_equality.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.runner import DeviceSpec, SweepPoint
from repro.workloads import BENCHMARK_NAMES

GOLDEN = Path(__file__).parent / "golden" / "compile_digests.json"

STRATEGIES = ("qubit_only", "fq", "eqm", "rb", "awe", "pp", "ec")
DEVICES = ("grid", "heavy_hex")
SIZES = (8, 12)
SEED = 1


def _cells() -> list[tuple[str, str, int, str]]:
    """Every (benchmark, device, size, strategy); EC (exhaustive) on grid-8 only."""
    cells = []
    for benchmark in BENCHMARK_NAMES:
        for device in DEVICES:
            for size in SIZES:
                for strategy in STRATEGIES:
                    if strategy == "ec" and (device, size) != ("grid", 8):
                        continue
                    cells.append((benchmark, device, size, strategy))
    return cells


def _fields(value) -> tuple:
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value))


def cell_digest(benchmark: str, device: str, size: int, strategy: str) -> str:
    """Digest of one cell's op stream and EPS report (or its compile error)."""
    point = SweepPoint(benchmark, size, strategy, device=DeviceSpec(kind=device), seed=SEED)
    digest = hashlib.sha256()
    try:
        result = point.execute()
    except Exception as error:  # noqa: BLE001 - a compile failure is pinned too
        digest.update(f"{type(error).__name__}: {error}".encode())
        return digest.hexdigest()
    digest.update(repr([_fields(op) for op in result.compiled.ops]).encode())
    digest.update(repr(_fields(result.report)).encode())
    return digest.hexdigest()


def _key(benchmark: str, device: str, size: int, strategy: str) -> str:
    return f"{benchmark}/{device}/{size}/{strategy}"


def compute_digests() -> dict[str, str]:
    """Digest of every cell, keyed ``benchmark/device/size/strategy``."""
    return {_key(*cell): cell_digest(*cell) for cell in _cells()}


def test_golden_covers_every_cell():
    expected = json.loads(GOLDEN.read_text())
    assert sorted(expected) == sorted(_key(*cell) for cell in _cells())


def test_compiled_programs_match_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    changed = [
        key for key, digest in compute_digests().items() if expected.get(key) != digest
    ]
    assert not changed, f"{len(changed)} cells compile differently: {changed[:10]}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
