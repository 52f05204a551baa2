import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from vclone.mesh import (
    MeshSpec,
    balanced_coupler,
    build_mesh,
    mzi_unitary,
    wrap_phases,
)

UNITARITY_TOL = 1e-12


def is_unitary(u, tol=UNITARITY_TOL):
    """Check max-abs deviation of U^dag U from the identity."""
    u = np.asarray(u)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))) < tol


def embed(block, mode_pair, m):
    """Reference: a 2x2 block on an adjacent mode pair, embedded into an m-mode identity."""
    i, j = mode_pair
    if j != i + 1:
        raise ValueError(f"mode pair {mode_pair} is not adjacent")
    if i < 0 or j >= m:
        raise ValueError(f"mode pair {mode_pair} out of range for {m} modes")
    u = np.eye(m, dtype=complex)
    u[i : i + 2, i : i + 2] = block
    return u


def test_mzi_full_cross():
    # theta = 0: convention forces i * swap.
    u = mzi_unitary(0.0, 0.0)
    assert np.allclose(u, 1j * np.array([[0, 1], [1, 0]]), atol=1e-12)


def test_mzi_full_bar():
    # theta = pi: bar state up to phase.
    u = mzi_unitary(np.pi, 0.0)
    assert np.allclose(u, np.array([[-1, 0], [0, 1]]), atol=1e-12)


def test_mzi_unitary_property():
    u = mzi_unitary(np.pi / 2, 1.3)
    assert is_unitary(u)


@pytest.mark.parametrize("seed", range(10))
def test_mzi_random_unitary(seed):
    rng = np.random.default_rng(seed)
    u = mzi_unitary(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
    assert is_unitary(u)


def test_embed_identity():
    assert np.allclose(embed(np.eye(2), (0, 1), 4), np.eye(4), atol=1e-12)


def test_embed_swap_is_permutation():
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    u = embed(swap, (1, 2), 4)
    perm = np.eye(4)[[0, 2, 1, 3]]
    assert np.allclose(u, perm, atol=1e-12)


def test_embed_keeps_unitarity():
    u = embed(mzi_unitary(0.7, 2.1), (2, 3), 5)
    assert is_unitary(u)


def test_embed_rejects_bad_pairs():
    with pytest.raises(ValueError):
        embed(np.eye(2), (0, 2), 4)
    with pytest.raises(ValueError):
        embed(np.eye(2), (3, 4), 4)


def test_single_mzi_mesh_matches_cell():
    spec = MeshSpec(mode_count=2, cell_pairs=((0, 1),))
    theta, phi = 0.9, 4.2
    assert np.allclose(build_mesh(spec, [theta, phi]), mzi_unitary(theta, phi), atol=1e-12)


def test_single_mzi_mesh_equals_cell_just_below_zero():
    # A phase in about [-4.4e-16, 0) wraps to 0, in the cell as in the mesh; one %
    # alone would round it to 2*pi and build the cell at theta = 2*pi.
    spec = MeshSpec(mode_count=2, cell_pairs=((0, 1),))
    for theta, phi in ((-1e-17, 0.3), (0.9, -1e-17), (-1e-17, -1e-17)):
        assert np.array_equal(build_mesh(spec, [theta, phi]), mzi_unitary(theta, phi))


def test_four_mode_all_zero_phases_hand_composed():
    # Oracle: compose the six all-cross cells by hand, writing the embedded
    # 4x4 factors out explicitly instead of going through embed().
    x = 1j * np.array([[0, 1], [1, 0]], dtype=complex)
    low = np.eye(4, dtype=complex)
    low[0:2, 0:2] = x
    high = np.eye(4, dtype=complex)
    high[2:4, 2:4] = x
    mid = np.eye(4, dtype=complex)
    mid[1:3, 1:3] = x
    expected = mid @ high @ low @ mid @ high @ low
    assert np.allclose(build_mesh(MeshSpec.four_mode_core(), np.zeros(12)), expected, atol=1e-12)


def test_four_mode_random_params_unitary():
    rng = np.random.default_rng(3)
    u = build_mesh(MeshSpec.four_mode_core(), rng.uniform(0, 2 * np.pi, 12))
    assert is_unitary(u)


@pytest.mark.parametrize("pair", [(0, 2), (3, 4), (0, 1.0), (0.0, 1), (True, 2)])
def test_mesh_spec_rejects_bad_mode_pair(pair):
    with pytest.raises(ValueError, match="invalid mode pair"):
        MeshSpec(mode_count=4, cell_pairs=(pair,))


def test_build_mesh_rejects_wrong_arity():
    with pytest.raises(ValueError):
        build_mesh(MeshSpec.four_mode_core(), np.zeros(11))


def test_phase_periodicity():
    rng = np.random.default_rng(4)
    params = rng.uniform(0, 2 * np.pi, 12)
    shift = 2 * np.pi * rng.integers(-3, 4, size=12)
    spec = MeshSpec.four_mode_core()
    assert np.allclose(build_mesh(spec, params), build_mesh(spec, params + shift), atol=1e-12)


def test_cell_by_cell_equals_one_shot():
    spec = MeshSpec.four_mode_core()
    rng = np.random.default_rng(5)
    params = rng.uniform(0, 2 * np.pi, 12)
    u = np.eye(4, dtype=complex)
    for k, pair in enumerate(spec.cell_pairs):
        u = embed(mzi_unitary(params[2 * k], params[2 * k + 1]), pair, 4) @ u
    assert np.allclose(u, build_mesh(spec, params), atol=1e-12)


def test_four_mode_core_layout():
    spec = MeshSpec.four_mode_core()
    assert spec.n_phases == 12
    assert len(spec.cell_pairs) == 6
    # No two cells of the same column share a mode: columns are
    # [(0,1),(2,3)], [(1,2)], [(0,1),(2,3)], [(1,2)].
    assert spec.cell_pairs == ((0, 1), (2, 3), (1, 2), (0, 1), (2, 3), (1, 2))


def test_wrap_phases_range():
    wrapped = wrap_phases([-0.1, 7.0, 2 * np.pi, -1e-17, -4e-16])
    assert np.all(wrapped >= 0) and np.all(wrapped < 2 * np.pi)


def test_fixed_couplers_are_balanced():
    c = balanced_coupler()
    assert is_unitary(c)
    assert np.allclose(np.abs(c) ** 2, 0.5 * np.ones((2, 2)), atol=1e-12)


def test_spec_roundtrip_serialization():
    # The four-mode core in the config's JSON form (see the README).
    data = {
        "mode_count": 4,
        "cells": [{"modes": [a, b], "theta_index": 2 * k, "phi_index": 2 * k + 1}
                  for k, (a, b) in enumerate(((0, 1), (2, 3), (1, 2), (0, 1), (2, 3), (1, 2)))],
        "fixed_couplers": [],
    }
    assert MeshSpec.from_dict(data) == MeshSpec.four_mode_core()


_phase = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(_phase, min_size=12, max_size=12))
def test_build_mesh_unitary_for_any_phases(params):
    assert is_unitary(build_mesh(MeshSpec.four_mode_core(), params))


@settings(max_examples=100, deadline=None)
@given(st.lists(_phase, min_size=8, max_size=8))
def test_build_mesh_matches_embedded_product_with_fixed_couplers(params):
    # Oracle: the full m x m product of embedded blocks, cells then couplers.
    spec = MeshSpec(mode_count=4, cell_pairs=((1, 2), (0, 1), (2, 3), (1, 2)),
                    fixed_couplers=((0, 1), (2, 3)))
    u = np.eye(4, dtype=complex)
    for k, pair in enumerate(spec.cell_pairs):
        u = embed(mzi_unitary(params[2 * k], params[2 * k + 1]), pair, 4) @ u
    for pair in spec.fixed_couplers:
        u = embed(balanced_coupler(), pair, 4) @ u
    assert np.max(np.abs(build_mesh(spec, params) - u)) < 1e-12


_COUPLED_MESH = MeshSpec(mode_count=4, cell_pairs=((1, 2), (0, 1), (2, 3), (1, 2)),
                         fixed_couplers=((0, 1), (2, 3)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([MeshSpec.four_mode_core(), _COUPLED_MESH]),
       st.sampled_from([(1,), (5,), (2, 3)]), st.integers(0, 2**32 - 1))
def test_batched_build_mesh_rows_equal_single_builds(spec, batch, seed):
    # A stack of phase vectors builds every unitary at once; each must be
    # bitwise the 1-D build of its own row, and unitary.
    params = np.random.default_rng(seed).uniform(-20.0, 20.0, batch + (spec.n_phases,))
    stacked = build_mesh(spec, params)
    assert stacked.shape == batch + (4, 4)
    for index in np.ndindex(*batch):
        single = build_mesh(spec, params[index])
        assert single.shape == (4, 4)
        assert np.array_equal(stacked[index], single)
        assert is_unitary(stacked[index])


def test_batched_build_mesh_rejects_wrong_arity():
    with pytest.raises(ValueError, match="expected 12 phases for this mesh, got 11"):
        build_mesh(MeshSpec.four_mode_core(), np.zeros((3, 11)))


def test_mzi_unitary_vectorizes_over_phases():
    rng = np.random.default_rng(8)
    thetas, phis = rng.uniform(-7, 7, 5), rng.uniform(-7, 7, 5)
    stacked = mzi_unitary(thetas, phis)
    assert stacked.shape == (5, 2, 2)
    for k in range(5):
        assert np.allclose(stacked[k], mzi_unitary(thetas[k], phis[k]), rtol=0, atol=1e-15)


def _haar_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _fit_infidelity(target, rng, attempts=4):
    # 12 mesh phases plus 4 input and 4 output phases; global-phase
    # invariant infidelity 1 - |tr(V^dag U)|^2 / 16.
    spec = MeshSpec.four_mode_core()

    def model(x):
        d_in = np.diag(np.exp(1j * x[12:16]))
        d_out = np.diag(np.exp(1j * x[16:20]))
        return d_out @ build_mesh(spec, x[:12]) @ d_in

    def cost(x):
        overlap = np.trace(target.conj().T @ model(x))
        return 1.0 - (abs(overlap) ** 2) / 16.0

    best = np.inf
    for _ in range(attempts):
        x0 = rng.uniform(0, 2 * np.pi, 20)
        res = minimize(cost, x0, method="L-BFGS-B")
        best = min(best, res.fun)
        if best < 1e-6:
            break
    return best


def test_universality_smoke():
    # 12 phases plus input/output phase freedom reach arbitrary 4-mode
    # unitaries; numerical fit on Haar-random targets.
    rng = np.random.default_rng(11)
    for _ in range(100):
        target = _haar_unitary(rng, 4)
        assert _fit_infidelity(target, rng) < 1e-3
