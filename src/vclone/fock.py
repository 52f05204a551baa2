"""Multiphoton Fock-state evolution through a mode unitary.

Transition amplitudes follow the permanent rule

    <T| U |S> = Per(U_{S,T}) / sqrt(prod_i s_i! * prod_j t_j!)

where U_{S,T} repeats columns of U per the input occupations S and rows
per the output occupations T.  Scale is small by design (n <= 4 photons,
m <= 8 modes), so amplitudes are stored densely over all output patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from typing import Callable

import numpy as np

#: Post-selection probabilities below this are treated as zero support.
ZERO_SUPPORT_TOL = 1e-12


def permanent(matrix: np.ndarray) -> complex:
    """Permanent of a square matrix.

    Direct expansion for dimension <= 3; Ryser's formula with Gray-code
    subset ordering beyond that (O(2^n * n) instead of O(n! * n)).
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"permanent requires a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n == 1:
        return complex(a[0, 0])
    if n == 2:
        return complex(a[0, 0] * a[1, 1] + a[0, 1] * a[1, 0])
    if n == 3:
        return complex(
            a[0, 0] * (a[1, 1] * a[2, 2] + a[1, 2] * a[2, 1])
            + a[0, 1] * (a[1, 0] * a[2, 2] + a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] + a[1, 1] * a[2, 0])
        )
    return _permanent_ryser(a, n)


def _permanent_ryser(a: np.ndarray, n: int) -> complex:
    # Gray-code enumeration of column subsets: each step toggles one column
    # in the running row-sum vector.
    row_sums = np.zeros(n, dtype=complex)
    total = 0.0 + 0.0j
    sign = 1.0
    gray = 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        bit = new_gray ^ gray
        j = bit.bit_length() - 1
        if new_gray & bit:
            row_sums += a[:, j]
        else:
            row_sums -= a[:, j]
        gray = new_gray
        sign = -1.0 if (n - bin(gray).count("1")) % 2 else 1.0
        total += sign * np.prod(row_sums)
    return complex(total)


def permanent_naive(matrix: np.ndarray) -> complex:
    """Permanent by brute-force sum over all permutations (test oracle)."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"permanent requires a square matrix, got shape {a.shape}")
    n = a.shape[0]
    rows = np.arange(n)
    return complex(sum(np.prod(a[rows, list(p)]) for p in permutations(range(n))))


def enumerate_patterns(n: int, m: int) -> list[tuple[int, ...]]:
    """All C(n+m-1, n) occupation patterns of n photons in m modes.

    Canonical order is lexicographically descending, e.g.
    (2, 2) -> [(2, 0), (1, 1), (0, 2)].
    """
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    out = []
    for combo in combinations_with_replacement(range(m), n):
        occ = [0] * m
        for mode in combo:
            occ[mode] += 1
        out.append(tuple(occ))
    return out


@dataclass(frozen=True)
class FockAmplitudes:
    """Complex amplitudes over photon occupation patterns.

    ``amplitudes`` maps each pattern (length-m occupation tuple) to its
    amplitude; patterns carry n photons each.
    """

    n: int
    m: int
    amplitudes: dict[tuple[int, ...], complex]

    def amplitude(self, pattern: tuple[int, ...]) -> complex:
        return self.amplitudes.get(tuple(pattern), 0.0 + 0.0j)

    def probability(self, pattern: tuple[int, ...]) -> float:
        return abs(self.amplitude(pattern)) ** 2

    def total_probability(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))


@dataclass(frozen=True)
class PostselectionRule:
    """Deterministic accept/reject predicate over occupation patterns."""

    predicate: Callable[[tuple[int, ...]], bool]
    description: str

    def accepts(self, pattern: tuple[int, ...]) -> bool:
        return bool(self.predicate(tuple(pattern)))

    @classmethod
    def accept_all(cls) -> "PostselectionRule":
        return cls(predicate=lambda p: True, description="accept all patterns")

    @classmethod
    def coincidence(cls, group_a: tuple[int, ...], group_b: tuple[int, ...]) -> "PostselectionRule":
        """Exactly one photon in each of two disjoint mode groups."""
        a, b = tuple(group_a), tuple(group_b)
        if set(a) & set(b):
            raise ValueError("coincidence groups must be disjoint")

        def pred(pattern: tuple[int, ...]) -> bool:
            return sum(pattern[i] for i in a) == 1 and sum(pattern[i] for i in b) == 1

        return cls(predicate=pred, description=f"one photon in modes {a} and one in modes {b}")


def evolve(input_state: tuple[int, ...] | list[int], u: np.ndarray) -> FockAmplitudes:
    """Evolve a Fock input through a mode unitary.

    Returns amplitudes over every output pattern; total probability is 1
    (up to roundoff) for unitary u.
    """
    occ = tuple(int(x) for x in input_state)
    u = np.asarray(u, dtype=complex)
    m = u.shape[0]
    if u.shape != (m, m):
        raise ValueError("mode unitary must be square")
    if len(occ) != m:
        raise ValueError(f"input has {len(occ)} modes but unitary acts on {m}")
    n = sum(occ)
    if n < 1:
        raise ValueError("input must carry at least one photon")

    if n == 1:
        # Single photon: plain matrix-vector action on the mode amplitudes.
        col = occ.index(1)
        amps = {}
        for i in range(m):
            pattern = tuple(1 if j == i else 0 for j in range(m))
            amps[pattern] = complex(u[i, col])
        return FockAmplitudes(n=n, m=m, amplitudes=amps)

    cols = [j for j, o in enumerate(occ) for _ in range(o)]
    norm_in = math.prod(math.factorial(o) for o in occ)
    amps = {}
    for pattern, rows, norm_out in _pattern_table(n, m):
        sub = u[np.ix_(rows, cols)]
        amps[pattern] = permanent(sub) / math.sqrt(norm_in * norm_out)
    return FockAmplitudes(n=n, m=m, amplitudes=amps)


@lru_cache(maxsize=None)
def _pattern_table(n: int, m: int) -> tuple:
    # Pattern, repeated row indices, and output normalization, once per (n, m).
    table = []
    for pattern in enumerate_patterns(n, m):
        rows = tuple(i for i, o in enumerate(pattern) for _ in range(o))
        norm_out = math.prod(math.factorial(o) for o in pattern)
        table.append((pattern, rows, norm_out))
    return tuple(table)


def postselect(
    state: FockAmplitudes, rule: PostselectionRule
) -> tuple[FockAmplitudes | None, float]:
    """Condition on the rule and renormalize.

    Returns (renormalized amplitudes over accepted patterns, P_post).  When
    the accepted probability is below ZERO_SUPPORT_TOL the amplitudes are
    None and P_post is 0.0; callers must handle this zero-support signal.
    """
    accepted = {p: a for p, a in state.amplitudes.items() if rule.accepts(p)}
    p_post = float(sum(abs(a) ** 2 for a in accepted.values()))
    if p_post < ZERO_SUPPORT_TOL:
        return None, 0.0
    scale = 1.0 / math.sqrt(p_post)
    normalized = {p: a * scale for p, a in accepted.items()}
    return FockAmplitudes(n=state.n, m=state.m, amplitudes=normalized), min(p_post, 1.0)
