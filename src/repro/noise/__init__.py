"""Noise simulation subsystem: Monte Carlo trajectories over compiled circuits.

Closes the loop the analytic EPS model leaves open: instead of *predicting*
a compiled circuit's success probability from a closed form, sample it —
stochastic Pauli channels after every physical op, amplitude-damping decay
over every logical qubit's qubit/ququart-mode residency, seeded and
bit-reproducible, with Wilson confidence intervals.

Layers:

* :mod:`repro.noise.model` — :class:`NoiseModel` built from device
  calibration, with the declarative :class:`NoiseSpec` recipe and named
  presets (``ideal``, ``table1``, ``pessimistic``, ``heterogeneous``).
* :mod:`repro.noise.rng` — batched bit-exact replication of the per-shot
  ``default_rng((seed, shot))`` streams, the engine's vectorised core
  (:class:`GeneratorLanes` keeps lanes live for the tracked path's
  bounded-integer draws; ``stream_prefix`` shares each chunk's first
  uniform columns among the event-only engines of one seed).
* :mod:`repro.noise.trajectory` — the trajectory sampler (chunk-batched
  event-only *and* state-tracking paths plus the scalar ``_reference``
  loop) and :func:`simulate_noisy`.
* :mod:`repro.noise.result` — :class:`NoisyResult`, the counters every
  sampler and backend returns, with the Wilson interval and the
  deterministic merge of a plan's shot chunks.
* :mod:`repro.noise.density` — an exact density-matrix reference path
  (registers of up to 3 units) the trajectory sampler is unit-tested
  against.
* :mod:`repro.noise.points` — shot batches as cacheable
  :class:`~repro.runner.SweepPlan` points for process-pool fan-out.

Quick start::

    from repro.evaluation import compile_benchmark
    from repro.noise import NoiseSpec, simulate_noisy

    compiled = compile_benchmark("bv", 6, "eqm").compiled
    result = simulate_noisy(compiled, NoiseSpec.from_preset("table1"),
                            shots=2000, seed=0)
    result.success_probability, result.confidence_interval()
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".model": ("IDLE_POLICIES", "NoiseModel", "NoiseSpec", "resolve_model"),
    ".presets": ("NOISE_PRESETS",),
    ".result": ("NoisyResult", "wilson_interval"),
    ".rng": ("GeneratorLanes", "uniform_streams"),
    ".trajectory": ("EVENT_BLOCK_SHOTS", "TRACKED_BLOCK_AMPLITUDES", "TrajectoryEngine",
                    "simulate_noisy"),
    ".density": ("MAX_REFERENCE_UNITS", "exact_outcome_probability", "reference_density",
                 "trajectory_mean_density"),
    ".points": ("DEFAULT_CHUNK_SIZE", "NoisePoint", "shot_plan", "simulate_plan"),
})
