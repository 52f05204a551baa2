"""The test oracle: multiphoton Fock-state evolution and the density-matrix cloner.

``vclone train``, ``validate`` and ``report`` never import this module: the
tests check the closed-form kernel of ``vclone.cloner`` against its
``run_cloner``, and ``vclone oracle`` runs its ``ORACLE_CHECKS``.

Transition amplitudes follow the permanent rule

    <T| U |S> = Per(U_{S,T}) / sqrt(prod_i s_i! * prod_j t_j!)

where U_{S,T} repeats columns of U per the input occupations S and rows
per the output occupations T.  Scale is small by design (n <= 4 photons,
m <= 8 modes), so amplitudes are stored densely over all output patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations
from typing import Callable

import numpy as np

from .cloner import (CLONE1_RAILS, CLONE2_RAILS, COINCIDENCE_PATTERNS, INPUT_OCCUPATION, INPUT_RAILS,
                     SEMICLASSICAL_FIDELITY, TRAINING_PHASES, ZERO_SUPPORT_TOL, CloningOutcome,
                     QubitState, four_mode_spec)
from .mesh import MeshSpec, build_mesh

_HERMITIAN_TOL = 1e-8


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

    cols = [j for j, o in enumerate(occ) for _ in range(o)]
    norm_in = math.prod(math.factorial(o) for o in occ)
    amps = {}
    for pattern in enumerate_patterns(n, m):
        rows = [i for i, o in enumerate(pattern) for _ in range(o)]
        norm_out = math.prod(math.factorial(o) for o in pattern)
        amps[pattern] = permanent(u[np.ix_(rows, cols)]) / math.sqrt(norm_in * norm_out)
    return FockAmplitudes(n=n, m=m, amplitudes=amps)


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


def prep_unitary(psi: QubitState) -> np.ndarray:
    """Preparation stage on the input rails, |0> -> psi; the ancilla is untouched."""
    c, s = math.cos(psi.theta), math.sin(psi.theta)
    e = np.exp(1j * psi.phi)
    u = np.eye(4, dtype=complex)
    u[np.ix_(INPUT_RAILS, INPUT_RAILS)] = [[c, -s / e], [s * e, c]]
    return u


def run_cloner(params: np.ndarray | list[float], psi: QubitState,
               spec: MeshSpec | None = None) -> tuple[FockAmplitudes | None, CloningOutcome]:
    """Evolve the two-photon input and post-select on the coincidence rule.

    The general Fock-space path, kept as the oracle of ``cloner.clone_outcomes``.
    Returns the normalized post-selected joint state (None on zero support)
    and the cloning outcome.  Zero-support configurations report
    P_post = 0 with both fidelities 0, keeping cost functions finite.
    """
    u = build_mesh(four_mode_spec(spec), params) @ prep_unitary(psi)
    state = evolve(INPUT_OCCUPATION, u)
    joint, p_post = postselect(state, PostselectionRule.coincidence(CLONE1_RAILS, CLONE2_RAILS))
    if joint is None:
        return None, CloningOutcome(f1=0.0, f2=0.0, p_post=0.0)
    f1, f2 = (fidelity(reduced_clone(joint, which), psi) for which in (1, 2))
    return joint, CloningOutcome(f1, f2, p_post)


def joint_logical_state(joint: FockAmplitudes) -> np.ndarray:
    """Post-selected joint state as a 2x2 amplitude array psi[a, b].

    Index a is the clone-1 logical bit, b the clone-2 bit.  Raises if the
    joint state has support outside the coincidence patterns.
    """
    amps = np.array([joint.amplitude(p) for p in COINCIDENCE_PATTERNS]).reshape(2, 2)
    support = float(np.sum(np.abs(amps) ** 2))
    if abs(support - joint.total_probability()) > 1e-10:
        raise ValueError("joint state has support outside the coincidence patterns")
    return amps


def reduced_clone(joint: FockAmplitudes, which: int) -> np.ndarray:
    """Reduced density matrix of one clone (partial trace over the other)."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    psi2 = joint_logical_state(joint)
    if which == 1:
        return psi2 @ psi2.conj().T
    return psi2.T @ psi2.conj()


def _validate_density(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("density matrix must be 2x2")
    if np.max(np.abs(rho - rho.conj().T)) > _HERMITIAN_TOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > _HERMITIAN_TOL:
        raise ValueError("density matrix trace is not 1")
    if np.min(np.linalg.eigvalsh(rho)) < -_HERMITIAN_TOL:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def fidelity(rho: np.ndarray, psi: QubitState) -> float:
    """Fidelity <psi|rho|psi> of a clone with the pure target state."""
    rho = _validate_density(rho)
    a = np.array(psi.ket())
    value = float(np.real(a.conj() @ rho @ a))
    return min(max(value, 0.0), 1.0)


def equatorial_fidelity_profile(rho: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """<psi_phi|rho|psi_phi> for equatorial states, vectorized over phi."""
    rho = np.asarray(rho, dtype=complex)
    return 0.5 * np.real(rho[0, 0] + rho[1, 1] + 2.0 * rho[0, 1] * np.exp(1j * phis))


def design_identity_check(rho: np.ndarray, quadrature_points: int = 10_000) -> tuple[float, float]:
    """Compare the equator average of (1-F_phi)^2 with its 4-point average.

    For a fixed clone state the four X/Y eigenstates form an exact planar
    2-design, so both sides agree up to quadrature error.
    """
    if quadrature_points < 100:
        raise ValueError("need at least 100 quadrature points")
    rho = _validate_density(rho)
    phis = np.linspace(0.0, 2.0 * math.pi, quadrature_points + 1)
    integrand = (1.0 - equatorial_fidelity_profile(rho, phis)) ** 2
    lhs = float(np.trapezoid(integrand, phis) / (2.0 * math.pi))
    four = (1.0 - equatorial_fidelity_profile(rho, np.array(TRAINING_PHASES))) ** 2
    return lhs, float(np.mean(four))


def semiclassical_monte_carlo(trials: int, seed: int = 0) -> float:
    """Monte-Carlo estimate of the measure-and-prepare average fidelity.

    Each trial draws a random equatorial input and measurement basis,
    samples the outcome, and prepares copies in the measured basis state.
    """
    rng = np.random.default_rng(seed)
    phi_in = rng.uniform(0.0, 2.0 * math.pi, trials)
    phi_basis = rng.uniform(0.0, 2.0 * math.pi, trials)
    # P(outcome along the basis state) for equatorial input and basis.
    p = np.cos((phi_in - phi_basis) / 2.0) ** 2
    outcome_along = rng.random(trials) < p
    # Copies are the basis state or its antipode: fidelity p or 1 - p with the input.
    return float(np.mean(np.where(outcome_along, p, 1.0 - p)))


def _oracle_permanent() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        worst = max(worst, abs(permanent(m) - permanent_naive(m)))
    return worst < 1e-10, f"max |Ryser - naive| = {worst:.3e} (expected < 1e-10)"


def _oracle_design_identity() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        lhs, rhs = design_identity_check(rho, quadrature_points=10_000)
        worst = max(worst, abs(lhs - rhs))
    return worst < 1e-6, f"max |integral - 4-point| = {worst:.3e} (expected < 1e-6)"


def _oracle_semiclassical() -> tuple[bool, str]:
    estimate = semiclassical_monte_carlo(1_000_000, seed=3)
    err = abs(estimate - SEMICLASSICAL_FIDELITY)
    return err < 0.002, f"Monte-Carlo {estimate:.4f} vs 0.750 (expected within 0.002)"


#: The ``vclone oracle`` checks by name, in run order; each returns (passed, detail).
ORACLE_CHECKS = {"permanent": _oracle_permanent, "design-identity": _oracle_design_identity,
                 "semiclassical": _oracle_semiclassical}
