"""The replay backend: answers points purely from the artifact store.

Replay never compiles and never samples a shot — it returns a point's
stored result verbatim.  Because its :attr:`content_name` is
``"trajectory"``, a replay point's key equals the trajectory point's key:
a warm sweep is served entirely as store hits (``executed == 0``), and the
results are bit-identical to the original run.  The executor and the sweep
service look each point up in their own store and raise
:class:`~repro.backends.contract.ReplayMissError` naming it on a miss
(:func:`~repro.runner.cache.refuse_store_miss`); only store-less calls
reach this backend, which reads the default cache directory
(``$REPRO_CACHE_DIR`` or ``.repro_cache/``).  A cold point never silently
recomputes — replay is a load-testing and audit scenario, not a fallback.
"""

from __future__ import annotations

from repro.backends.contract import ExecutionBackend, ReplayMissError, ensure_noisy_result
from repro.noise.result import NoisyResult
from repro.runner import cache
from repro.store.artifacts import ArtifactStore, default_cache_dir


def store_miss(root, point) -> ReplayMissError:
    """The error for a replay ``point`` the store at ``root`` has no result for."""
    return ReplayMissError(
        f"no stored result under {root} for this point "
        f"(key {cache.point_key(point)[:12]}…); run it on the "
        "'trajectory' backend against the same store first, or "
        "configure the replay run with the warm store's root"
    )


class ReplayBackend(ExecutionBackend):
    """Store-served results only; executes zero shots, compiles nothing.

    It overrides only the point-level entry points, so a live
    ``compile``/``execute`` call gets the base class's refusal.
    """

    name = "replay"
    #: Replay serves the trajectory backend's artifacts, so its points key
    #: identically to trajectory points — that equality is the whole design.
    content_name = "trajectory"
    #: Tracked results replay fine — trackedness is a property of the
    #: stored artifact, not of this backend.
    supports_track_state = True
    #: Replay answers points by *reading* the store, so the executor and
    #: the sweep service never dispatch one their own store has missed.
    reads_store = True

    # ------------------------------------------------------------------
    # point-level lookups
    # ------------------------------------------------------------------
    def _lookup(self, point) -> object:
        store = ArtifactStore(default_cache_dir())
        result = store.get_object(cache.point_key(point))
        if result is None:
            raise store_miss(store.root, point)
        return result

    def compile_point(self, point):
        """Serve the stored :class:`~repro.runner.records.StrategyResult`."""
        return self._lookup(point)

    def run_noise_point(self, point) -> NoisyResult:
        """Serve the stored shot-chunk result."""
        return ensure_noisy_result(self._lookup(point), self.name)
