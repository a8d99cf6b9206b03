"""Content-addressed artifact store: blobs, refs and run manifests.

This package is the persistence tier of the reproduction.  It knows nothing
about sweep points or circuits — it stores bytes under their own SHA-256
(``blobs/``), maps content keys to blobs (``refs/``) and records
schema-validated run manifests (``manifests/``).  The compile cache
(:class:`repro.runner.cache.CompileCache`) and the sweep service
(:mod:`repro.service`) are its two clients.

Layout, atomicity and audit semantics are documented on
:class:`ArtifactStore`; the manifest schema lives in
:mod:`repro.store.manifest`.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".artifacts": ("STORE_FORMAT_VERSION", "ArtifactStore", "GCReport", "StoreStats",
                   "VerifyReport", "wait_for"),
    ".manifest": ("MANIFEST_SCHEMA", "MANIFEST_SCHEMA_VERSION", "build_manifest",
                  "new_manifest_id", "plan_fingerprint", "validate_manifest"),
    ".schema": ("SchemaError", "validate"),
})
