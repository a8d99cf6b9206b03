"""Compile cache: content keying for plan points over the artifact store.

The on-disk format is the content-addressed
:class:`~repro.store.ArtifactStore` (``blobs/<sha256[:2]>/<sha256>`` plus a
``refs/`` index and ``manifests/``).  :class:`CompileCache` is the
point-keyed ``get``/``put``/``stats`` view the executor uses over one
store: writes are atomic (temp file + ``os.replace``), safe under
concurrent writers, deduplicated by content, and every read is
hash-verified — a truncated or corrupt entry is detected and served as a
miss instead of crashing ``pickle.load``.  Build it with
:meth:`CompileCache.from_store`.

This module also owns *keying*: :func:`point_key` digests a plan point's
canonical JSON payload together with a fingerprint of the whole ``repro``
package source and a schema version.  Invalidation is therefore automatic
and total: any change to the point — strategy kwargs, device recipe
(topology kind, T1 knobs, duration or fidelity overrides), seed — changes
the digest; any source edit retires every entry; and the schema version
covers result-format changes independent of code content.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import repro
from repro.runner.records import StrategyResult, SweepPoint, ensure_execution_point
from repro.store.artifacts import ArtifactStore

#: Bump to invalidate every existing cache entry (result-format changes).
CACHE_SCHEMA_VERSION = 1

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of every ``repro`` source file, folded into each cache key.

    Compiled results depend on the compiler, strategies, device models and
    workload builders — any source edit may change the numbers, so a stale
    cache must never survive a code change in a reproduction repo.  Hashing
    the whole package is a few milliseconds once per process.
    """
    package_root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def point_key(point) -> str:
    """Stable content key for one plan point.

    This is the digest the store's ``refs/`` index, the run manifests and
    the sweep service's in-flight dedupe all share.  The point must satisfy
    the :class:`~repro.runner.records.ExecutionPoint` protocol; anything
    else raises the protocol's ``TypeError`` rather than keying garbage.
    """
    ensure_execution_point(point)
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "code": code_fingerprint(),
        "point": point.payload(),
    }
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def refuse_store_miss(point, root) -> None:
    """Raise ``ReplayMissError`` naming ``root`` if ``point`` reads the store.

    The executor and the sweep service call this on each point their store
    at ``root`` has missed.  A point whose backend
    :attr:`~repro.backends.contract.ExecutionBackend.reads_store` (replay)
    keys like the trajectory point it serves, so nothing else can answer
    it; every other point passes.
    """
    from repro.backends.registry import get_backend

    backend = getattr(point, "backend", None)
    if backend is not None and get_backend(backend).reads_store:
        from repro.backends.replay import store_miss

        raise store_miss(root, point)


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` if set, else ``.repro_cache/``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path(".repro_cache")


@dataclass
class CacheStats:
    """Hit/miss/write counters for one :class:`CompileCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0


class CompileCache:
    """Point-keyed view over an :class:`~repro.store.ArtifactStore`.

    Maps plan points (:class:`~repro.runner.records.ExecutionPoint` values)
    to their pickled results through the store's content-addressed blobs.
    Two caches over the same store root — in the same process, in two
    worker processes, or on two machines sharing a filesystem — serve and
    publish a single consistent set of artifacts.

    Build one with :meth:`from_store`.
    """

    def __init__(self, *, store: ArtifactStore) -> None:
        self.store = store
        self.root = Path(store.root)
        self.stats = CacheStats()

    @classmethod
    def from_store(cls, store: ArtifactStore) -> "CompileCache":
        """Wrap an existing :class:`ArtifactStore`."""
        return cls(store=store)

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def get(self, point: SweepPoint) -> StrategyResult | None:
        """Return the cached result for ``point`` (any payload()-bearing
        plan point), or None on a miss.

        Unreadable entries (truncated blobs, hash mismatches, pickle-format
        drift) are removed and counted as misses rather than raised.
        """
        result = self.store.get_object(point_key(point))
        if result is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, point: SweepPoint, result: StrategyResult) -> Path:
        """Publish ``result`` under the point's key; return the blob path."""
        digest = self.store.put_object(
            point_key(point), result, payload=point.payload()
        )
        self.stats.writes += 1
        return self.store.blob_path(digest)
