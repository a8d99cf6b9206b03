"""Result container for the Monte Carlo trajectory engine.

A :class:`NoisyResult` holds the counters of one seeded batch of shots,
the unit of parallel fan-out, and is what every execution backend returns.
Batches merge deterministically (plain integer/float sums in plan order)
through :meth:`NoisyResult.from_chunks`, so the same seed produces a
bit-identical result whatever the worker count or chunk split.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion.

    The default ``z = 1.96`` gives the 95% interval.  Unlike the normal
    approximation it stays inside [0, 1] and behaves sensibly at the
    extremes (0 or ``trials`` successes), which matters for near-ideal
    noise models.
    """
    if trials <= 0:
        raise ValueError("the Wilson interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be between 0 and trials")
    p = successes / trials
    denominator = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denominator
    margin = (z / denominator) * math.sqrt(
        p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)
    )
    low = max(0.0, centre - margin)
    high = min(1.0, centre + margin)
    # the bounds are exact at the degenerate extremes; avoid float fuzz there
    if successes == trials:
        high = 1.0
    if successes == 0:
        low = 0.0
    return low, high


@dataclass(frozen=True)
class NoisyResult:
    """Monte Carlo estimate for one (circuit, noise model) pair.

    Holds the counters of one shot chunk, or of a whole plan merged by
    :meth:`from_chunks`.  Every shot draws from its private
    ``(seed, shot_index)`` stream, so the merged counters do not depend on
    the chunk split.
    """

    shots: int
    seed: int
    #: Shots during which no error event (gate or decay) fired.
    no_error_shots: int
    #: Total gate-error events across all shots.
    gate_events: int
    #: Total idle-decay events across all shots.
    idle_events: int
    #: Whether the state vector was evolved (enables the outcome metrics).
    tracked: bool = False
    #: Shots whose sampled final measurement matched the ideal outcome.
    outcome_successes: int = 0
    #: Sum over shots of |<ideal | noisy>|^2.
    outcome_fidelity_sum: float = 0.0

    @classmethod
    def from_chunks(cls, chunks: Sequence[NoisyResult], seed: int) -> NoisyResult:
        """Merge the results of a plan's shot chunks (in plan order) into one.

        An empty chunk list (a zero-shot plan) merges into the well-defined
        zero-shot result; estimates that divide by the shot count raise on
        it, but the counters are all validly zero.
        """
        if not chunks:
            return cls(shots=0, seed=seed, no_error_shots=0, gate_events=0, idle_events=0)
        tracked = all(chunk.tracked for chunk in chunks)
        return cls(
            shots=sum(chunk.shots for chunk in chunks),
            seed=seed,
            no_error_shots=sum(chunk.no_error_shots for chunk in chunks),
            gate_events=sum(chunk.gate_events for chunk in chunks),
            idle_events=sum(chunk.idle_events for chunk in chunks),
            tracked=tracked,
            outcome_successes=sum(chunk.outcome_successes for chunk in chunks) if tracked else 0,
            outcome_fidelity_sum=math.fsum(chunk.outcome_fidelity_sum for chunk in chunks)
            if tracked
            else 0.0,
        )

    # ------------------------------------------------------------------
    # estimates
    # ------------------------------------------------------------------
    @property
    def success_probability(self) -> float:
        """Estimated probability that a shot runs error-free.

        This is the Monte Carlo estimator of the analytic EPS: the paper's
        model counts *any* gate error or decay as a failure, so success is
        "no error event fired during the trajectory".
        """
        if self.shots == 0:
            raise ValueError("success probability is undefined for a zero-shot result")
        return self.no_error_shots / self.shots

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Wilson interval around :attr:`success_probability`."""
        if self.shots == 0:
            raise ValueError("confidence interval is undefined for a zero-shot result")
        return wilson_interval(self.no_error_shots, self.shots, z=z)

    @property
    def outcome_probability(self) -> float | None:
        """Estimated probability of measuring the ideal outcome.

        Only available when the state vector was tracked.  Always at least
        :attr:`success_probability` in expectation — error events can still
        leave the measured outcome intact (e.g. phase errors before a
        computational-basis measurement), which is exactly the conservatism
        of the analytic EPS model.
        """
        if not self.tracked:
            return None
        if self.shots == 0:
            raise ValueError("outcome probability is undefined for a zero-shot result")
        return self.outcome_successes / self.shots

    @property
    def mean_outcome_fidelity(self) -> float | None:
        """Mean |<ideal | noisy>|^2 across shots (state-tracked runs only)."""
        if not self.tracked:
            return None
        if self.shots == 0:
            raise ValueError("outcome fidelity is undefined for a zero-shot result")
        return self.outcome_fidelity_sum / self.shots

    def summary(self) -> dict:
        """Compact dictionary used by reports and the CLI."""
        low, high = self.confidence_interval()
        summary = {
            "shots": self.shots,
            "seed": self.seed,
            "success_probability": self.success_probability,
            "ci_low": low,
            "ci_high": high,
            "gate_events": self.gate_events,
            "idle_events": self.idle_events,
        }
        if self.tracked:
            summary["outcome_probability"] = self.outcome_probability
            summary["mean_outcome_fidelity"] = self.mean_outcome_fidelity
        return summary
