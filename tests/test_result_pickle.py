"""The pickling contract of :class:`~repro.compiler.result.CompiledCircuit`.

A stored result carries ``ops`` and ``lowered_circuit`` as nested pickles
that decode on first read.  These tests pin what the store, the sweep
service and the benchmark's replay check rely on: a redeemed result
re-pickles to its blob byte for byte whether or not its packed fields were
read, it equals the freshly compiled result, derived caches never enter a
blob, and blobs written before the fields were packed still load.

``tests/golden/compiled_prepack.pkl`` is such an older blob: the pickled
:class:`~repro.runner.StrategyResult` of ``bv``-4/``eqm`` on a grid at seed 0,
written when ``ops`` and ``lowered_circuit`` were plain instance fields and
the residency cache was pickled along with them.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import io
import pickle
from pathlib import Path

import pytest

from repro.analysis import lint_store
from repro.backends import get_backend
from repro.compiler.result import DERIVED_CACHES, PACKED_FIELDS, CompiledCircuit
from repro.noise import NoiseSpec
from repro.runner import DeviceSpec, SweepPoint
from repro.store import ArtifactStore
from repro.store.manifest import build_manifest
from repro.workloads import BENCHMARK_NAMES

PREPACK = Path(__file__).parent / "golden" / "compiled_prepack.pkl"

STRATEGIES = ("qubit_only", "fq", "eqm", "rb", "awe", "pp")


def _compile(benchmark: str, size: int, strategy: str):
    point = SweepPoint(benchmark, size, strategy, device=DeviceSpec(kind="grid"), seed=0)
    return point, point.execute()


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _fields(value) -> tuple:
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value))


def compile_digest(result) -> str:
    """The benchmark's compile-digest recipe for one result."""
    digest = hashlib.sha256()
    digest.update(repr((result.benchmark, result.num_qubits, result.strategy)).encode())
    digest.update(repr([_fields(op) for op in result.compiled.ops]).encode())
    digest.update(repr(_fields(result.report)).encode())
    return digest.hexdigest()


def assert_same_result(decoded, fresh) -> None:
    """Field-by-field equality; the device by its pickle.

    :class:`~repro.arch.Device` holds a networkx graph, which compares by
    identity, so no two devices are ever ``==`` unless they are one object.
    """
    assert (decoded.benchmark, decoded.num_qubits, decoded.strategy) == (
        fresh.benchmark, fresh.num_qubits, fresh.strategy)
    assert decoded.report == fresh.report
    for spec in dataclasses.fields(CompiledCircuit):
        ours, theirs = getattr(decoded.compiled, spec.name), getattr(fresh.compiled, spec.name)
        if spec.name == "device":
            assert _dumps(ours) == _dumps(theirs)
        else:
            assert ours == theirs, spec.name


def _packed(compiled) -> dict:
    return vars(compiled)["_packed"]


@pytest.fixture(scope="module", params=[("qft", 6, "eqm"), ("bv", 6, "rb"),
                                        ("teleport", 3, "qubit_only")],
                ids=lambda cell: "-".join(map(str, cell)))
def stored(request, tmp_path_factory):
    """(fresh result, its blob bytes, store, key) for one compiled point."""
    point, fresh = _compile(*request.param)
    store = ArtifactStore(tmp_path_factory.mktemp("store"))
    digest = store.put_object(point.key(), fresh)
    return fresh, store.get_blob(digest), store, point.key()


class TestRedeemedResults:
    def test_repickles_to_its_blob_before_and_after_the_packed_fields_are_read(self, stored):
        _fresh, blob, store, key = stored
        redeemed = store.get_object(key)
        assert not set(PACKED_FIELDS) & set(vars(redeemed.compiled))
        assert _dumps(redeemed) == blob
        redeemed.compiled.ops, redeemed.compiled.lowered_circuit
        assert set(PACKED_FIELDS) <= set(vars(redeemed.compiled))
        assert _dumps(redeemed) == blob

    def test_equals_the_fresh_result_and_digests_the_same(self, stored):
        fresh, _blob, store, key = stored
        redeemed = store.get_object(key)
        assert compile_digest(redeemed) == compile_digest(fresh)
        assert_same_result(redeemed, fresh)

    def test_derived_caches_never_enter_a_blob(self, stored):
        fresh, _blob, _store, _key = stored
        compiled = copy.copy(fresh.compiled)
        compiled.residency_segments()
        compiled.cached_schedule(("probe",), lambda: "derived")
        assert set(DERIVED_CACHES) <= set(vars(compiled))
        data = _dumps(compiled)
        for name in DERIVED_CACHES:
            assert name.encode() not in data
        assert not set(DERIVED_CACHES) & set(vars(pickle.loads(data)))
        # a trajectory engine the artifact keeps is derived data too
        get_backend("trajectory").execute(compiled, 16, 0, noise=NoiseSpec.from_preset("table1"))
        assert any(key[0] == "trajectory-engine" for key in vars(compiled)["_schedule_memo"])
        assert _dumps(compiled) == _dumps(fresh.compiled)

    def test_an_edit_after_decoding_survives_a_round_trip(self, stored):
        _fresh, blob, _store, _key = stored
        redeemed = pickle.loads(blob)
        redeemed.compiled.ops[0].start_ns += 1.0
        redeemed.compiled.ops.pop()
        again = pickle.loads(_dumps(redeemed))
        assert again.compiled.ops == redeemed.compiled.ops
        assert _dumps(again) != blob

    def test_deepcopy_and_replace_carry_the_packed_fields(self, stored):
        fresh, blob, _store, _key = stored
        copied = copy.deepcopy(pickle.loads(blob))
        assert_same_result(copied, fresh)
        replaced = dataclasses.replace(pickle.loads(blob).compiled, circuit_name="renamed")
        assert replaced.circuit_name == "renamed"
        assert replaced.ops == fresh.compiled.ops
        assert replaced.lowered_circuit == fresh.compiled.lowered_circuit

    def test_unknown_attributes_still_raise(self, stored):
        _fresh, blob, _store, _key = stored
        compiled = pickle.loads(blob).compiled
        assert getattr(compiled, "_residency_cache", None) is None
        with pytest.raises(AttributeError, match="no_such_field"):
            compiled.no_such_field

    def test_a_corrupt_packed_field_fails_on_first_read(self, stored):
        _fresh, blob, _store, _key = stored
        compiled = pickle.loads(blob).compiled
        _packed(compiled)["ops"] = b"not a pickle"
        assert compiled.circuit_name
        with pytest.raises(pickle.UnpicklingError):
            compiled.ops


class _NoGlobalsUnpickler(pickle.Unpickler):
    """Loads a payload, refusing every global it names."""

    def __init__(self, data: bytes):
        super().__init__(io.BytesIO(data))

    def find_class(self, module, name):
        raise pickle.UnpicklingError(f"payload references {module}.{name}")


def test_packed_payloads_load_only_repro_globals():
    # The store reads an unpicklable blob as a miss only while decoding the
    # envelope; packed payloads decode later, so they must name nothing a
    # library upgrade or a moved class could break: they are plain rows.
    for benchmark in BENCHMARK_NAMES:
        for strategy in STRATEGIES:
            _point, result = _compile(benchmark, 8, strategy)
            packed = _packed(pickle.loads(_dumps(result.compiled)))
            tag, rows = _NoGlobalsUnpickler(packed["ops"]).load()
            assert tag == "rows"
            assert len(rows) == result.compiled.num_ops
            tag, state = _NoGlobalsUnpickler(packed["lowered_circuit"]).load()
            assert tag == "rows"
            assert len(state["_gates"]) == len(result.compiled.lowered_circuit)


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
def test_a_legacy_packed_payload_decodes_and_repickles_as_rows(stored, read_first):
    # Blobs written before rows packed each field as a pickled object list
    # (and a pickled circuit); they load, and re-pickle as a fresh compile.
    fresh, blob, _store, _key = stored
    legacy = pickle.loads(blob)
    _packed(legacy.compiled).update(
        ops=_dumps(fresh.compiled.ops), lowered_circuit=_dumps(fresh.compiled.lowered_circuit))
    if read_first:
        assert legacy.compiled.ops == fresh.compiled.ops
        assert legacy.compiled.lowered_circuit == fresh.compiled.lowered_circuit
    assert _dumps(legacy) == blob
    assert_same_result(pickle.loads(_dumps(legacy)), fresh)


class TestPrepackBlob:
    def test_loads_and_equals_a_fresh_compile(self):
        old = pickle.loads(PREPACK.read_bytes())
        assert set(PACKED_FIELDS) <= set(vars(old.compiled))
        assert "_packed" not in vars(old.compiled)
        _point, fresh = _compile("bv", 4, "eqm")
        assert_same_result(old, fresh)
        assert compile_digest(old) == compile_digest(fresh)

    def test_repickles_in_the_packed_layout(self):
        old = pickle.loads(PREPACK.read_bytes())
        assert "_residency_cache" in vars(old.compiled)
        data = _dumps(old)
        assert b"_residency_cache" not in data
        again = pickle.loads(data)
        assert set(vars(again.compiled)) & set(PACKED_FIELDS) == set()
        assert again.compiled.ops == old.compiled.ops

    def test_store_serves_and_lints_it(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put_blob(PREPACK.read_bytes())
        store.put_ref("0" * 64, digest)
        store.write_manifest(build_manifest(
            kind="sweep", plan_fp="1" * 64, code_fp="2" * 64,
            points=[{"key": "0" * 64, "blob": digest, "cached": True}],
            total_seconds=0.0, executed=0, cache_hits=1, deduped=0,
        ))
        assert store.get_object("0" * 64).compiled.num_ops > 0
        report, counters = lint_store(store)
        assert report.ok, report.findings
        assert counters["artifacts"] == 1
