"""Finite-statistics emulation of the coincidence measurements.

Each cost evaluation on hardware sets the phases once, then measures every
training state with a finite number of two-fold coincidences.  Here the sampled
evaluator draws from the pattern probabilities of the task's one kernel call
per step: each restart its own rows, from its own seeded generator, in one
multinomial call per run of its rows (one per restart: training passes rows in
restart order), N trials per state (four coincidence patterns plus a rejected
bin).  Fidelities are estimated from conditional counts as on the device, for
all rows at once, by ``cloner.outcomes``, which an exact run applies to the
probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

# measurement_path_probabilities is unused here; it stays because perfbench/spans.py patches it.
from .cloner import measurement_path_probabilities, outcomes  # noqa: F401
from .mesh import MeshSpec

#: The most shots one evaluation can draw: numpy's multinomial takes a C long.
MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True)
class NoiseConfig:
    """Shot budget per cost evaluation; shots=None means exact (no noise)."""

    shots: int | None = 5000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shots is not None and not 1 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"shots must be from 1 to {MAX_SHOTS} (or None for exact mode)")


def sample_counts(
    probabilities: np.ndarray | list[float],
    shots: int,
    rng: np.random.Generator | int | Mapping[int, np.random.Generator],
    owners: np.ndarray | None = None,
) -> np.ndarray:
    """Multinomial counts over accepted patterns for N total trials per row.

    ``probabilities`` is (..., k), accepted-pattern probabilities per row; a
    row's remainder to 1 is its rejected bin, whose count is not returned.
    The rows are checked and normalised once.  Without ``owners`` one call on
    ``rng`` draws every row, as drawing the rows in turn would.  ``owners``
    names the generator of each leading row: each run of owner r's rows is one
    call on ``rng[r]``, so its rows are drawn in order, as one call would.
    """
    p = np.asarray(probabilities, dtype=float)
    if (p < -1e-12).any():
        raise ValueError("probabilities must be non-negative")
    p = np.maximum(p, 0.0)
    total = p.sum(axis=-1, keepdims=True)
    if (total > 1.0 + 1e-9).any():
        raise ValueError(f"probabilities sum to {total.max()} > 1")
    full = np.concatenate([p, np.maximum(1.0 - total, 0.0)], axis=-1)
    full /= full.sum(axis=-1, keepdims=True)
    if owners is None:
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        return rng.multinomial(shots, full)[..., :-1]
    counts = np.empty(full.shape, dtype=np.int64)
    start, owners = 0, owners.tolist()
    for stop in range(1, len(owners) + 1):  # one draw per run of an owner's rows
        if stop == len(owners) or owners[stop] != owners[start]:
            counts[start:stop] = rng[owners[start]].multinomial(shots, full[start:stop])
            start = stop
    return counts[..., :-1]


def _binomial_err(p: float, n: int) -> float:
    """sqrt(p(1-p)/n); with n = 0 (then p = 0 too) it is 0."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / max(n, 1))


@dataclass(frozen=True)
class EstimatedOutcome:
    """Estimated fidelities and success probability of one row of counts, as Python
    scalars, with their binomial errors on demand."""

    f1: float
    f2: float
    p_post: float
    n_coincidences: int
    shots: int
    valid: bool

    @property
    def f1_err(self) -> float:
        return _binomial_err(self.f1, self.n_coincidences)

    @property
    def f2_err(self) -> float:
        return _binomial_err(self.f2, self.n_coincidences)

    @property
    def p_err(self) -> float:
        return _binomial_err(self.p_post, self.shots)


def estimate_outcome(counts: np.ndarray | list[int], shots: int) -> EstimatedOutcome:
    """Estimate (F1, F2, P_post) from one row of four coincidence-pattern counts; a row
    with zero coincidences is invalid, with all values 0."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (4,):
        raise ValueError("expected the four coincidence-pattern counts")
    coincidences = int(counts.sum())
    f1, f2, p_post = outcomes(counts, shots).tolist()
    return EstimatedOutcome(f1, f2, p_post, coincidences, shots, coincidences > 0)


def sampled_evaluator(noise: NoiseConfig, spec: MeshSpec | None = None
                      ) -> Callable[[np.ndarray, Sequence[int]], np.ndarray]:
    """Evaluator (probabilities (B, S, 4), restarts) -> (B, S, 3) outcomes for a noisy
    run: the draw between ``Task``'s kernel call and ``cloner.outcomes``.

    ``restarts`` names the restart that asked for each row.  Restart r draws the
    counts of its rows, in order, in one multinomial call on its own generator,
    ``default_rng(noise.seed + r)``, made on first use; so its sample stream is
    the one a single-stream evaluator seeded ``noise.seed + r`` would give it,
    whatever it shares a call with.  ``spec`` is unused; perfbench/child.py passes it.
    """
    if noise.shots is None:
        raise ValueError("sampled_evaluator needs a shot count; exact runs use the kernel")
    shots, rngs = noise.shots, {}

    def evaluate(probs: np.ndarray, restarts: Sequence[int]) -> np.ndarray:
        owners = np.asarray(restarts)
        for r in set(owners.tolist()) - rngs.keys():
            rngs[r] = np.random.default_rng(noise.seed + r)
        return outcomes(sample_counts(probs, shots, rngs, owners), shots)

    return evaluate
