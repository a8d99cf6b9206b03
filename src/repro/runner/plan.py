"""Declarative enumeration of sweep points.

A :class:`SweepPlan` is an immutable, ordered tuple of points: iteration
order is deterministic (``cartesian`` enumerates benchmark-major) and two
plans built from the same arguments enumerate identical points in
identical order.  That ordering is load-bearing — executor results, run
manifests and plan fingerprints
(:func:`~repro.store.manifest.plan_fingerprint`) are all defined in plan
order.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.runner.records import DEFAULT_BACKEND, DeviceSpec, SweepPoint, freeze_kwargs


def _as_spec(device: DeviceSpec | str) -> DeviceSpec:
    if isinstance(device, DeviceSpec):
        return device
    return DeviceSpec(kind=device)


@dataclass(frozen=True)
class SweepPlan:
    """An ordered, immutable collection of :class:`SweepPoint` entries.

    The order of ``points`` is the order results come back in, whatever the
    worker count — the executor restores it after fan-out.  Plans compose
    with ``+`` so an experiment can batch several sub-sweeps into a single
    parallel dispatch.
    """

    points: tuple[SweepPoint, ...] = ()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def cartesian(
        cls,
        benchmarks: Iterable[str],
        sizes: Iterable[int],
        strategies: Iterable[str],
        device: DeviceSpec | str = "grid",
        seed: int = 0,
        strategy_kwargs: dict | None = None,
        compiler_kwargs: dict | None = None,
        backend: str = DEFAULT_BACKEND,
    ) -> "SweepPlan":
        """Full benchmark x size x strategy product on one device recipe.

        Enumeration order is benchmark-major, then size, then strategy —
        matching the legacy serial loops so results line up row for row.
        """
        spec = _as_spec(device)
        frozen_strategy = freeze_kwargs(strategy_kwargs)
        frozen_compiler = freeze_kwargs(compiler_kwargs)
        points = tuple(
            SweepPoint(
                benchmark=benchmark,
                num_qubits=size,
                strategy=strategy,
                device=spec,
                seed=seed,
                strategy_kwargs=frozen_strategy,
                compiler_kwargs=frozen_compiler,
                backend=backend,
            )
            for benchmark in benchmarks
            for size in sizes
            for strategy in strategies
        )
        return cls(points)

    @classmethod
    def single(
        cls,
        benchmark: str,
        num_qubits: int,
        strategy: str,
        device: DeviceSpec | str = "grid",
        seed: int = 0,
        strategy_kwargs: dict | None = None,
        compiler_kwargs: dict | None = None,
        backend: str = DEFAULT_BACKEND,
    ) -> "SweepPlan":
        """Plan holding exactly one point."""
        return cls.cartesian(
            (benchmark,), (num_qubits,), (strategy,),
            device=device, seed=seed,
            strategy_kwargs=strategy_kwargs, compiler_kwargs=compiler_kwargs,
            backend=backend,
        )

    # ------------------------------------------------------------------
    # collection protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self.points)

    def __getitem__(self, index: int) -> SweepPoint:
        return self.points[index]

    def __add__(self, other: "SweepPlan") -> "SweepPlan":
        return SweepPlan(self.points + other.points)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def benchmarks(self) -> tuple[str, ...]:
        """Distinct benchmarks in first-appearance order."""
        return tuple(dict.fromkeys(point.benchmark for point in self.points))

    def describe(self) -> str:
        """One-line summary used by CLI progress output."""
        benchmarks = self.benchmarks()
        shown = ", ".join(benchmarks[:4]) + ("..." if len(benchmarks) > 4 else "")
        return f"{len(self.points)} points over {len(benchmarks)} benchmarks ({shown})"
