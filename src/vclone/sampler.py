"""Finite-statistics emulation of the coincidence measurements.

Each cost evaluation on hardware sees shot noise from a finite number of
two-fold coincidence events.  Here the measurement-stage output
distribution is sampled with a fixed number of trials N (multinomial over
the four coincidence patterns plus a rejected-event bin), and fidelities
are estimated from the conditional counts exactly as on the device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cloner import CloningOutcome, QubitState, RailMap, DEFAULT_RAILS, four_mode_spec
from .cloner import measurement_path_outcome, measurement_path_probabilities
from .mesh import MeshSpec


@dataclass(frozen=True)
class NoiseConfig:
    """Shot budget per cost evaluation; shots=None means exact (no noise)."""

    shots: int | None = 5000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be at least 1 (or None for exact mode)")


def sample_counts(
    probabilities: np.ndarray | list[float],
    shots: int,
    rng: np.random.Generator | int,
) -> np.ndarray:
    """Multinomial counts over accepted patterns for N total trials.

    ``probabilities`` are the accepted-pattern probabilities; any remainder
    to 1 is the rejected bin, whose count is not returned.  Accepted plus
    rejected counts always total N.
    """
    p = np.asarray(probabilities, dtype=float)
    if np.any(p < -1e-12):
        raise ValueError("probabilities must be non-negative")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if total > 1.0 + 1e-9:
        raise ValueError(f"probabilities sum to {total} > 1")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    full = np.append(p, max(1.0 - total, 0.0))
    full /= full.sum()
    counts = rng.multinomial(shots, full)
    return counts[:-1]


@dataclass(frozen=True)
class EstimatedOutcome:
    """Estimated fidelities and success probability with binomial errors."""

    f1: float
    f2: float
    p_post: float
    f1_err: float
    f2_err: float
    p_err: float
    n_coincidences: int
    shots: int
    valid: bool

    def outcome(self) -> CloningOutcome:
        return CloningOutcome(f1=self.f1, f2=self.f2, p_post=self.p_post)


def _binomial_err(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n) if n > 0 else 0.0


def estimate_outcome(counts: np.ndarray | list[int], shots: int) -> EstimatedOutcome:
    """Estimate (F1, F2, P_post) from coincidence counts.

    ``counts`` are the four coincidence-pattern counts in logical order
    (00, 01, 10, 11); bit 0 means the clone photon exited its success
    rail.  F_i is the fraction of coincidences with the pair-i photon in
    the success rail.  Zero coincidences yield an invalid estimate with
    all values 0.
    """
    counts = np.asarray(counts, dtype=int)
    if counts.shape != (4,):
        raise ValueError("expected the four coincidence-pattern counts")
    coinc = int(counts.sum())
    p_hat = coinc / shots
    if coinc == 0:
        return EstimatedOutcome(
            f1=0.0, f2=0.0, p_post=0.0,
            f1_err=0.0, f2_err=0.0, p_err=_binomial_err(p_hat, shots),
            n_coincidences=0, shots=shots, valid=False,
        )
    f1_hat = (counts[0] + counts[1]) / coinc
    f2_hat = (counts[0] + counts[2]) / coinc
    return EstimatedOutcome(
        f1=float(f1_hat),
        f2=float(f2_hat),
        p_post=float(p_hat),
        f1_err=_binomial_err(f1_hat, coinc),
        f2_err=_binomial_err(f2_hat, coinc),
        p_err=_binomial_err(p_hat, shots),
        n_coincidences=coinc,
        shots=shots,
        valid=True,
    )


def sampled_evaluator(
    noise: NoiseConfig,
    spec: MeshSpec | None = None,
    rails: RailMap = DEFAULT_RAILS,
) -> Callable[[np.ndarray, QubitState], CloningOutcome]:
    """Outcome evaluator with shot noise, pluggable into the training tasks.

    Exact mode (shots=None) returns the noiseless measurement-path outcome.
    Otherwise the returned callable is stateful: it draws from a single
    generator seeded by the noise config, so a fixed seed gives a fully
    deterministic (but noisy) training run.
    """
    spec = four_mode_spec(spec)
    if noise.shots is None:
        return lambda params, psi: measurement_path_outcome(params, psi, spec, rails)
    rng = np.random.default_rng(noise.seed)

    def evaluate(params: np.ndarray, psi: QubitState) -> CloningOutcome:
        probs = measurement_path_probabilities(params, psi, spec, rails)
        counts = sample_counts(probs, noise.shots, rng)
        return estimate_outcome(counts, noise.shots).outcome()

    return evaluate
