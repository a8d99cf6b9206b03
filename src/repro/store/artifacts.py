"""Content-addressed on-disk artifact store.

The store is the persistence tier under the compile cache and the sweep
service.  Three kinds of files live under one root:

``blobs/<sha256[:2]>/<sha256>``
    Raw byte blobs named by the SHA-256 of their own content.  Content
    addressing makes publication idempotent: two writers racing to publish
    the same result write the same bytes to the same name, so "last rename
    wins" is harmless and deduplication is automatic.

``refs/<key[:2]>/<key>.json``
    The lookup index: one small JSON document per *content key* (the digest
    of a plan point's canonical payload) naming the blob that holds its
    pickled result, plus the human-readable key payload for audits.

``manifests/<id>.json``
    One schema-validated record per executed plan (see
    :mod:`repro.store.manifest`).

Every write is atomic — bytes land in a same-directory temp file first and
are installed with :func:`os.replace` — so concurrent writers (threads,
processes, or machines sharing a filesystem) can never expose a torn blob:
readers either see the complete content or nothing.  Every blob read is
re-hashed against its name, so a corrupted or truncated file is detected,
removed, and reported as a miss rather than poisoning later reads.

``gc`` removes blobs referenced by no ref and no manifest (plus stale temp
files from crashed writers); ``verify`` re-hashes every blob and validates
every ref and manifest, which is what the ``ci_validate_artifacts`` gate
runs.  Run ``gc`` only while no writer is mid-publish: a blob whose ref has
not landed yet is indistinguishable from garbage.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.store.manifest import validate_manifest
from repro.store.schema import SchemaError

#: Bump when the on-disk layout changes incompatibly.
STORE_FORMAT_VERSION = 1

#: Environment variable overriding the default store location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_HEX64 = frozenset("0123456789abcdef")

_tmp_counter = itertools.count()


def _is_digest(name: str) -> bool:
    return len(name) == 64 and set(name) <= _HEX64


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Publish ``data`` at ``path`` via same-directory temp file + rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / (
        f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}.{next(_tmp_counter)}"
    )
    try:
        with tmp.open("wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def default_cache_dir() -> Path:
    """Store root: ``$REPRO_CACHE_DIR`` if set, else ``.repro_cache/``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path(".repro_cache")


@dataclass
class StoreStats:
    """Inventory counters for one store root."""

    blobs: int = 0
    blob_bytes: int = 0
    refs: int = 0
    manifests: int = 0

    def as_dict(self) -> dict:
        return {
            "blobs": self.blobs,
            "blob_bytes": self.blob_bytes,
            "refs": self.refs,
            "manifests": self.manifests,
        }


@dataclass
class GCReport:
    """What one :meth:`ArtifactStore.gc` pass removed and kept."""

    removed_blobs: int = 0
    reclaimed_bytes: int = 0
    removed_temp_files: int = 0
    kept_blobs: int = 0

    def as_dict(self) -> dict:
        return {
            "removed_blobs": self.removed_blobs,
            "reclaimed_bytes": self.reclaimed_bytes,
            "removed_temp_files": self.removed_temp_files,
            "kept_blobs": self.kept_blobs,
        }


@dataclass
class VerifyReport:
    """Result of a full store audit: counts checked plus every issue found."""

    checked_blobs: int = 0
    checked_refs: int = 0
    checked_manifests: int = 0
    #: ``{"kind": ..., "path": ..., "detail": ...}`` per problem.
    issues: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checked": {
                "blobs": self.checked_blobs,
                "refs": self.checked_refs,
                "manifests": self.checked_manifests,
            },
            "issues": self.issues,
        }


class ArtifactStore:
    """Content-addressed blob + ref + manifest store rooted at a directory."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.blobs_dir = self.root / "blobs"
        self.refs_dir = self.root / "refs"
        self.manifests_dir = self.root / "manifests"
        for directory in (self.blobs_dir, self.refs_dir, self.manifests_dir):
            directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # blobs
    # ------------------------------------------------------------------
    def blob_path(self, digest: str) -> Path:
        """Fan-out path of the blob named ``digest`` (which need not exist)."""
        return self.blobs_dir / digest[:2] / digest

    def put_blob(self, data: bytes) -> str:
        """Store ``data`` under its own SHA-256 and return the digest.

        Idempotent: if the blob already exists the write is skipped — that
        is the deduplication two concurrent publishers of the same content
        observe.
        """
        digest = hashlib.sha256(data).hexdigest()
        path = self.blob_path(digest)
        if not path.exists():
            atomic_write_bytes(path, data)
        return digest

    def get_blob(self, digest: str) -> bytes | None:
        """Return the blob's bytes, or None if absent or corrupt.

        The content is re-hashed against the name on every read; a mismatch
        (truncated write from a crashed process, bit rot, tampering) deletes
        the file and reads as a miss.
        """
        path = self.blob_path(digest)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        if hashlib.sha256(data).hexdigest() != digest:
            path.unlink(missing_ok=True)
            return None
        return data

    def has_blob(self, digest: str) -> bool:
        """Existence check without reading (and thus without hash-verifying)."""
        return self.blob_path(digest).exists()

    def iter_blob_paths(self) -> Iterator[Path]:
        """Every non-temp file under ``blobs/``."""
        for path in sorted(self.blobs_dir.glob("*/*")):
            if path.is_file() and ".tmp." not in path.name:
                yield path

    # ------------------------------------------------------------------
    # refs (content key -> blob)
    # ------------------------------------------------------------------
    def ref_path(self, key: str) -> Path:
        """Fan-out path of the ref for content key ``key``."""
        return self.refs_dir / key[:2] / f"{key}.json"

    def put_ref(self, key: str, blob_digest: str, payload: dict | None = None) -> Path:
        """Atomically (over)write the ref mapping ``key`` to ``blob_digest``."""
        path = self.ref_path(key)
        document = {
            "schema": STORE_FORMAT_VERSION,
            "key": key,
            "blob": blob_digest,
            "payload": payload,
        }
        atomic_write_bytes(
            path, (json.dumps(document, sort_keys=True, indent=2, default=repr) + "\n").encode()
        )
        return path

    def get_ref(self, key: str) -> dict | None:
        """Return the ref document for ``key``, or None if absent/corrupt."""
        path = self.ref_path(key)
        try:
            document = json.loads(path.read_text())
        except OSError:
            return None
        except ValueError:
            path.unlink(missing_ok=True)
            return None
        if not isinstance(document, dict) or not _is_digest(str(document.get("blob", ""))):
            path.unlink(missing_ok=True)
            return None
        return document

    def iter_ref_paths(self) -> Iterator[Path]:
        """Every non-temp ref file under ``refs/``."""
        for path in sorted(self.refs_dir.glob("*/*.json")):
            if path.is_file() and ".tmp." not in path.name:
                yield path

    # ------------------------------------------------------------------
    # pickled objects (what the compile-cache shim stores)
    # ------------------------------------------------------------------
    def put_object(self, key: str, obj, payload: dict | None = None) -> str:
        """Pickle ``obj``, publish it as a blob, point ``key`` at it.

        The blob is installed *before* the ref, so a reader that sees the
        ref always finds the complete blob.  Returns the blob digest.
        """
        digest = self.put_blob(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
        self.put_ref(key, digest, payload=payload)
        return digest

    def get_object(self, key: str):
        """Load the object stored under ``key``, or None on any failure.

        The envelope is decoded here, eagerly; a stored
        :class:`~repro.compiler.result.CompiledCircuit` decodes its packed
        ``ops`` and ``lowered_circuit`` on first read instead.  Corrupt
        blobs and dangling or unparseable refs are removed so the next
        publisher repairs the entry; nothing here raises on bad data.
        """
        ref = self.get_ref(key)
        if ref is None:
            return None
        data = self.get_blob(ref["blob"])
        if data is None:
            self.ref_path(key).unlink(missing_ok=True)
            return None
        try:
            return pickle.loads(data)
        except Exception:
            # valid hash but unpicklable (pickle-format drift across
            # versions): retire both files and report a miss
            self.blob_path(ref["blob"]).unlink(missing_ok=True)
            self.ref_path(key).unlink(missing_ok=True)
            return None

    # ------------------------------------------------------------------
    # manifests
    # ------------------------------------------------------------------
    def manifest_path(self, manifest_id: str) -> Path:
        return self.manifests_dir / f"{manifest_id}.json"

    def write_manifest(self, manifest: dict) -> Path:
        """Schema-validate and atomically publish one run manifest."""
        validate_manifest(manifest)
        path = self.manifest_path(manifest["manifest_id"])
        atomic_write_bytes(
            path, (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode()
        )
        return path

    def read_manifest(self, manifest_id: str) -> dict:
        """Load and re-validate one manifest (raises on schema drift)."""
        manifest = json.loads(self.manifest_path(manifest_id).read_text())
        validate_manifest(manifest)
        return manifest

    def manifest_ids(self) -> list[str]:
        """Ids of every manifest in the store, sorted."""
        return sorted(
            path.stem
            for path in self.manifests_dir.glob("*.json")
            if ".tmp." not in path.name
        )

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def referenced_digests(self) -> set[str]:
        """Blob digests reachable from any ref or any manifest point."""
        referenced: set[str] = set()
        for path in self.iter_ref_paths():
            try:
                document = json.loads(path.read_text())
            except ValueError:
                continue
            digest = str(document.get("blob", "")) if isinstance(document, dict) else ""
            if _is_digest(digest):
                referenced.add(digest)
        for manifest_id in self.manifest_ids():
            try:
                manifest = json.loads(self.manifest_path(manifest_id).read_text())
            except ValueError:
                continue
            for point in manifest.get("points", []) if isinstance(manifest, dict) else []:
                digest = str(point.get("blob", "")) if isinstance(point, dict) else ""
                if _is_digest(digest):
                    referenced.add(digest)
        return referenced

    def gc(self) -> GCReport:
        """Delete blobs with no incoming reference, plus stale temp files.

        Must run quiescent (no concurrent publisher): a blob whose ref has
        not been installed yet looks unreferenced.
        """
        report = GCReport()
        referenced = self.referenced_digests()
        for path in sorted(self.blobs_dir.glob("*/*")):
            if not path.is_file():
                continue
            if ".tmp." in path.name:
                path.unlink(missing_ok=True)
                report.removed_temp_files += 1
                continue
            if path.name in referenced:
                report.kept_blobs += 1
                continue
            size = path.stat().st_size
            path.unlink(missing_ok=True)
            report.removed_blobs += 1
            report.reclaimed_bytes += size
        for path in list(self.refs_dir.glob("*/*")) + list(self.manifests_dir.glob("*")):
            if path.is_file() and ".tmp." in path.name:
                path.unlink(missing_ok=True)
                report.removed_temp_files += 1
        return report

    def verify(self) -> VerifyReport:
        """Re-hash every blob; validate every ref and manifest.

        This is the audit ``repro store verify`` (and the CI
        ``validate-artifacts`` gate) runs: it never mutates the store, it
        only reports.
        """
        report = VerifyReport()
        relative = lambda p: str(p.relative_to(self.root))  # noqa: E731
        for path in self.iter_blob_paths():
            report.checked_blobs += 1
            name = path.name
            if not _is_digest(name) or path.parent.name != name[:2]:
                report.issues.append({
                    "kind": "blob-misplaced", "path": relative(path),
                    "detail": "file name is not a sha256 under its fan-out directory",
                })
                continue
            if hashlib.sha256(path.read_bytes()).hexdigest() != name:
                report.issues.append({
                    "kind": "blob-hash-mismatch", "path": relative(path),
                    "detail": "content does not hash to the blob name",
                })
        for path in self.iter_ref_paths():
            report.checked_refs += 1
            try:
                document = json.loads(path.read_text())
            except ValueError as error:
                report.issues.append({
                    "kind": "ref-unparseable", "path": relative(path), "detail": str(error),
                })
                continue
            blob = str(document.get("blob", "")) if isinstance(document, dict) else ""
            if not _is_digest(blob) or document.get("key") != path.stem:
                report.issues.append({
                    "kind": "ref-malformed", "path": relative(path),
                    "detail": "ref must carry its own key and a sha256 blob digest",
                })
                continue
            if not self.has_blob(blob):
                report.issues.append({
                    "kind": "ref-dangling", "path": relative(path),
                    "detail": f"references missing blob {blob}",
                })
        for manifest_id in self.manifest_ids():
            report.checked_manifests += 1
            path = self.manifest_path(manifest_id)
            try:
                manifest = json.loads(path.read_text())
            except ValueError as error:
                report.issues.append({
                    "kind": "manifest-unparseable", "path": relative(path),
                    "detail": str(error),
                })
                continue
            try:
                validate_manifest(manifest)
            except SchemaError as error:
                report.issues.append({
                    "kind": "manifest-schema", "path": relative(path), "detail": str(error),
                })
                continue
            for index, point in enumerate(manifest["points"]):
                if not self.has_blob(point["blob"]):
                    report.issues.append({
                        "kind": "manifest-dangling", "path": relative(path),
                        "detail": f"points[{index}] references missing blob {point['blob']}",
                    })
        return report

    def stats(self) -> StoreStats:
        """Count blobs/refs/manifests and total blob bytes."""
        stats = StoreStats()
        for path in self.iter_blob_paths():
            stats.blobs += 1
            stats.blob_bytes += path.stat().st_size
        stats.refs = sum(1 for _ in self.iter_ref_paths())
        stats.manifests = len(self.manifest_ids())
        return stats

    def size_bytes(self) -> int:
        """Total bytes of every file under the store root."""
        return sum(
            path.stat().st_size for path in self.root.rglob("*") if path.is_file()
        )

    def clear(self) -> int:
        """Delete every blob, ref and manifest; return the ref count removed."""
        removed_refs = 0
        for path in list(self.refs_dir.glob("*/*")):
            if path.is_file():
                removed_refs += 1
                path.unlink(missing_ok=True)
        for path in list(self.blobs_dir.glob("*/*")) + list(self.manifests_dir.glob("*")):
            if path.is_file():
                path.unlink(missing_ok=True)
        return removed_refs


def wait_for(predicate, timeout: float, poll: float = 0.05, message: str = "condition"):
    """Poll ``predicate`` until truthy or ``timeout`` seconds elapse.

    Small shared utility for polling-style tests and the spool server;
    returns the truthy value, raises :class:`TimeoutError` otherwise.
    """
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise TimeoutError(f"timed out after {timeout}s waiting for {message}")
        time.sleep(poll)
