"""Finite-statistics emulation of the coincidence measurements.

Each cost evaluation on hardware sets the phases once, then measures every
training state with a finite number of two-fold coincidences.  Here one mesh
build gives every state's measurement-stage distribution, one multinomial
draw takes N trials per state (four coincidence patterns plus a rejected
bin), and fidelities are estimated from conditional counts as on the device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .cloner import CloningOutcome, QubitState, RailMap, DEFAULT_RAILS, clone_outcomes, four_mode_spec
from .cloner import measurement_path_probabilities
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
    """Multinomial counts over accepted patterns for N total trials per row.

    ``probabilities`` is (..., k), accepted-pattern probabilities per row; a
    row's remainder to 1 is its rejected bin, whose count is not returned.
    One generator call draws every row, as drawing the rows in turn would.
    """
    p = np.asarray(probabilities, dtype=float)
    if (p < -1e-12).any():
        raise ValueError("probabilities must be non-negative")
    p = np.maximum(p, 0.0)
    total = p.sum(axis=-1, keepdims=True)
    if (total > 1.0 + 1e-9).any():
        raise ValueError(f"probabilities sum to {total.max()} > 1")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    full = np.concatenate([p, np.maximum(1.0 - total, 0.0)], axis=-1)
    full /= full.sum(axis=-1, keepdims=True)
    counts = rng.multinomial(shots, full)
    return counts[..., :-1]


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
    c00, c01, c10, c11 = counts.tolist()
    coinc = c00 + c01 + c10 + c11
    p_hat = coinc / shots
    if coinc == 0:
        return EstimatedOutcome(
            f1=0.0, f2=0.0, p_post=0.0,
            f1_err=0.0, f2_err=0.0, p_err=_binomial_err(p_hat, shots),
            n_coincidences=0, shots=shots, valid=False,
        )
    f1_hat = (c00 + c01) / coinc
    f2_hat = (c00 + c10) / coinc
    return EstimatedOutcome(
        f1=f1_hat,
        f2=f2_hat,
        p_post=p_hat,
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
) -> Callable[[np.ndarray, list[QubitState]], list[CloningOutcome]]:
    """Evaluator (params, states) -> outcomes of each (phase vector, state), row-major.

    Exact mode (shots=None) returns the kernel, ``clone_outcomes``.  Otherwise each
    call builds the mesh once, draws all rows' counts in one multinomial call, in the
    order of drawing the phase vectors one by one, and estimates each row from its own
    counts, from one generator seeded by the noise config: a fixed seed gives a deterministic run.
    """
    spec = four_mode_spec(spec)
    if noise.shots is None:
        return partial(clone_outcomes, spec=spec, rails=rails)
    rng = np.random.default_rng(noise.seed)

    def evaluate(params: np.ndarray, states: list[QubitState]) -> list[CloningOutcome]:
        probs = measurement_path_probabilities(params, states, spec, rails)
        counts = sample_counts(probs, noise.shots, rng).reshape(-1, 4)
        return [estimate_outcome(row, noise.shots).outcome() for row in counts.tolist()]

    return evaluate
