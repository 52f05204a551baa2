import numpy as np
import pytest
from scipy.linalg import expm, logm

from vclone.fock import (
    PostselectionRule,
    enumerate_patterns,
    evolve,
    permanent,
    permanent_naive,
    postselect,
)


def _haar_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------- permanent

def test_permanent_1x1():
    assert permanent(np.array([[3.5 + 1j]])) == pytest.approx(3.5 + 1j)


def test_permanent_2x2():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    assert permanent(m) == pytest.approx(1 * 4 + 2 * 3)


def test_permanent_all_ones_3x3():
    assert permanent(np.ones((3, 3))) == pytest.approx(6.0)


def test_permanent_4x4_vs_brute_force():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert abs(permanent(m) - permanent_naive(m)) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ryser_matches_naive(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert abs(permanent(m) - permanent_naive(m)) < 1e-10


def test_permanent_rejects_non_square():
    with pytest.raises(ValueError):
        permanent(np.ones((2, 3)))


# ----------------------------------------------------------------- patterns

def test_patterns_one_photon_two_modes():
    assert enumerate_patterns(1, 2) == [(1, 0), (0, 1)]


def test_patterns_two_photons_two_modes():
    assert enumerate_patterns(2, 2) == [(2, 0), (1, 1), (0, 2)]


def test_patterns_count_two_photons_four_modes():
    assert len(enumerate_patterns(2, 4)) == 10


# ------------------------------------------------------------------- evolve

def test_evolve_identity_is_diagonal():
    state = evolve((0, 2, 1, 0), np.eye(4))
    assert state.amplitude((0, 2, 1, 0)) == pytest.approx(1.0)
    assert state.total_probability() == pytest.approx(1.0, abs=1e-12)


def test_hong_ou_mandel_cancellation():
    coupler = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    state = evolve((1, 1), coupler)
    assert abs(state.amplitude((1, 1))) < 1e-12
    assert state.probability((2, 0)) == pytest.approx(0.5, abs=1e-12)
    assert state.probability((0, 2)) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (3, 2)])
def test_probability_conservation(n, seed):
    rng = np.random.default_rng(seed)
    u = _haar_unitary(rng, 4)
    occ = [0, 0, 0, 0]
    for _ in range(n):
        occ[rng.integers(0, 4)] += 1
    state = evolve(tuple(occ), u)
    assert state.total_probability() == pytest.approx(1.0, abs=1e-10)


def test_single_photon_reduces_to_matrix_column():
    rng = np.random.default_rng(3)
    u = _haar_unitary(rng, 4)
    state = evolve((0, 0, 1, 0), u)
    for i in range(4):
        pattern = tuple(1 if j == i else 0 for j in range(4))
        assert state.amplitude(pattern) == pytest.approx(u[i, 2], abs=1e-12)


def _homomorphism_matrix(u, n):
    # Independent oracle: lift the single-mode generator to the n-photon
    # space with ladder-operator matrix elements, then exponentiate.
    m = u.shape[0]
    h = logm(u) / 1j  # u = expm(1j * h)
    patterns = enumerate_patterns(n, m)
    index = {p: k for k, p in enumerate(patterns)}
    big_h = np.zeros((len(patterns), len(patterns)), dtype=complex)
    for s, pattern in enumerate(patterns):
        for j in range(m):
            for k in range(m):
                if pattern[k] == 0:
                    continue
                # a_dag_j a_k |pattern>
                new = list(pattern)
                coeff = np.sqrt(new[k])
                new[k] -= 1
                coeff *= np.sqrt(new[j] + 1)
                new[j] += 1
                big_h[index[tuple(new)], s] += h[j, k] * coeff
    return expm(1j * big_h), patterns, index


def test_evolve_matches_homomorphism_oracle():
    rng = np.random.default_rng(4)
    u = _haar_unitary(rng, 4)
    phi, patterns, index = _homomorphism_matrix(u, 2)
    for inp in [(1, 1, 0, 0), (0, 1, 0, 1), (2, 0, 0, 0)]:
        state = evolve(inp, u)
        col = index[inp]
        for pattern in patterns:
            assert state.amplitude(pattern) == pytest.approx(
                phi[index[pattern], col], abs=1e-10
            )


def test_evolve_dimension_mismatch():
    with pytest.raises(ValueError):
        evolve((1, 0, 1), np.eye(4))


# --------------------------------------------------------------- postselect

def test_postselect_accept_all():
    rng = np.random.default_rng(5)
    state = evolve((0, 1, 0, 1), _haar_unitary(rng, 4))
    kept, p = postselect(state, PostselectionRule.accept_all())
    assert p == pytest.approx(1.0, abs=1e-10)
    assert kept.total_probability() == pytest.approx(1.0, abs=1e-10)


def test_postselect_hom_zero_support():
    coupler = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    state = evolve((1, 1), coupler)
    rule = PostselectionRule.coincidence((0,), (1,))
    kept, p = postselect(state, rule)
    assert kept is None
    assert p == 0.0


def test_postselect_matches_brute_force_sum():
    rng = np.random.default_rng(6)
    state = evolve((0, 1, 0, 1), _haar_unitary(rng, 4))
    rule = PostselectionRule.coincidence((0, 1), (2, 3))
    kept, p = postselect(state, rule)
    accepted = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
    expected = sum(state.probability(a) for a in accepted)
    assert p == pytest.approx(expected, abs=1e-12)
    assert kept.total_probability() == pytest.approx(1.0, abs=1e-10)


def test_postselect_additivity():
    rng = np.random.default_rng(7)
    state = evolve((0, 1, 0, 1), _haar_unitary(rng, 4))
    rule = PostselectionRule.coincidence((0, 1), (2, 3))
    complement = PostselectionRule(
        predicate=lambda pat: not rule.accepts(pat), description="complement"
    )
    _, p = postselect(state, rule)
    _, q = postselect(state, complement)
    assert p + q == pytest.approx(1.0, abs=1e-10)


def test_exchange_symmetry_occupations_only():
    # Evolution depends only on the occupation list; there is no photon
    # labeling to permute, so equal occupation inputs give equal outputs.
    rng = np.random.default_rng(8)
    u = _haar_unitary(rng, 3)
    a = evolve((1, 1, 0), u)
    b = evolve([1, 1, 0], u)
    assert a.amplitudes == b.amplitudes
