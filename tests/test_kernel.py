"""The closed-form two-photon kernel against the Fock-space oracle.

``clone_outcomes`` and ``measurement_path_probabilities`` compute each
accepted amplitude as a 2x2 permanent from one mesh build; ``run_cloner``
and ``fock.evolve`` take the general path through every output pattern.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vclone import cloner, fock
from vclone.cloner import (
    CloningOutcome,
    QubitState,
    clone_outcomes,
    measurement_path_outcome,
    measurement_path_probabilities,
)
from vclone.fock import evolve, prep_unitary, run_cloner
from vclone.mesh import MeshSpec, build_mesh

TOL = 1e-12

#: A 4-cell custom mesh closed by two fixed 50:50 couplers (8 phases).
CUSTOM_MESH = MeshSpec(
    mode_count=4,
    cell_pairs=((1, 2), (0, 1), (2, 3), (1, 2)),
    fixed_couplers=((0, 1), (2, 3)),
)

_angle = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
_states = st.lists(st.builds(QubitState, _angle, _angle), min_size=1, max_size=5)
_specs = st.sampled_from([MeshSpec.four_mode_core(), CUSTOM_MESH])


def _params(spec):
    return st.lists(_angle, min_size=spec.n_phases, max_size=spec.n_phases)


_spec_and_params = _specs.flatmap(lambda spec: st.tuples(st.just(spec), _params(spec)))

_pair = st.sampled_from([(0, 1), (1, 2), (2, 3)])
_random_specs = st.builds(
    MeshSpec,
    st.just(4),
    st.lists(_pair, min_size=1, max_size=8).map(tuple),
    st.lists(_pair, max_size=2).map(tuple),
)
_random_spec_and_params = _random_specs.flatmap(lambda spec: st.tuples(st.just(spec), _params(spec)))


def _assert_outcomes_close(got: CloningOutcome, want: CloningOutcome) -> None:
    assert abs(got.f1 - want.f1) < TOL
    assert abs(got.f2 - want.f2) < TOL
    assert abs(got.p_post - want.p_post) < TOL


@settings(max_examples=200, deadline=None)
@given(_spec_and_params, _states)
def test_kernel_matches_run_cloner(spec_params, states):
    spec, params = spec_params
    outs = clone_outcomes(params, states, spec)
    assert outs.shape == (len(states), 3)
    for psi, row in zip(states, outs):
        _, oracle = run_cloner(params, psi, spec)
        _assert_outcomes_close(CloningOutcome(*row), oracle)
        assert np.all((0.0 <= row) & (row <= 1.0))


@settings(max_examples=200, deadline=None)
@given(_spec_and_params, _states)
def test_kernel_rows_are_the_measurement_path_outcomes(spec_params, states):
    # One probability path: each kernel row is bitwise its state's measurement-stage outcome.
    spec, params = spec_params
    outs = clone_outcomes(params, states, spec)
    for psi, row in zip(states, outs.tolist()):
        assert CloningOutcome(*row) == measurement_path_outcome(params, psi, spec)


def measurement_rotation(psi):
    """Reference measurement stage W on a clone pair: first row <psi|, so psi maps to the |0> rail."""
    c, s = math.cos(psi.theta), math.sin(psi.theta)
    e = np.exp(1j * psi.phi)
    return np.array([[c, s / e], [-s * e, c]], dtype=complex)


def _measured_oracle(params, psi, spec):
    """Coincidence probabilities of the full prep -> mesh -> measurement unitary via fock.evolve."""
    meas = np.eye(4, dtype=complex)
    for rails in (cloner.CLONE1_RAILS, cloner.CLONE2_RAILS):
        meas[np.ix_(rails, rails)] = measurement_rotation(psi)
    state = evolve(cloner.INPUT_OCCUPATION, meas @ build_mesh(spec, params) @ prep_unitary(psi))
    return np.array([state.probability(p) for p in cloner.COINCIDENCE_PATTERNS])


@settings(max_examples=200, deadline=None)
@given(_spec_and_params, _states.map(lambda s: s[0]))
def test_measurement_probabilities_match_evolve(spec_params, psi):
    spec, params = spec_params
    oracle = _measured_oracle(params, psi, spec)
    got = measurement_path_probabilities(params, [psi], spec)[0]
    assert np.max(np.abs(got - oracle)) < TOL
    _assert_outcomes_close(measurement_path_outcome(params, psi, spec), run_cloner(params, psi, spec)[1])


@settings(max_examples=200, deadline=None)
@given(_random_spec_and_params, _states)
def test_batched_measurement_probabilities_match_evolve(spec_params, states):
    # One mesh build for the whole list; every row must equal its state's oracle.
    spec, params = spec_params
    got = measurement_path_probabilities(params, states, spec)
    assert got.shape == (len(states), 4)
    for row, psi in zip(got, states):
        assert np.max(np.abs(row - _measured_oracle(params, psi, spec))) < TOL


@settings(max_examples=100, deadline=None)
@given(_random_specs, st.integers(1, 6), st.integers(0, 2**32 - 1), _states)
def test_batched_kernel_rows_equal_single_point_calls(spec, batch, seed, states):
    # A (B, n_phases) stack gives (B, S, 3) outcomes and (B, S, 4) probabilities;
    # each row is bitwise the call on its own phase vector.
    params = np.random.default_rng(seed).uniform(-10.0, 10.0, (batch, spec.n_phases))
    singles = np.stack([clone_outcomes(p, states, spec) for p in params])
    batched = clone_outcomes(params, states, spec)
    assert batched.shape == (batch, len(states), 3)
    assert np.array_equal(batched, singles)
    stacked = measurement_path_probabilities(params, states, spec)
    assert stacked.shape == (batch, len(states), 4)
    for p, rows in zip(params, stacked):
        assert np.array_equal(rows, measurement_path_probabilities(p, states, spec))


def test_state_stack_is_built_once():
    states = [QubitState.equatorial(0.3), QubitState(0.2, 1.1)]
    stack = cloner.StateStack(states)
    assert cloner.StateStack(stack) is stack
    assert stack == tuple(states)
    assert stack.kets.shape == (2, 2) and stack.rotations.shape == (2, 2, 2)
    assert np.array_equal(stack.rotations[1], measurement_rotation(states[1]))
    params = np.random.default_rng(1).uniform(0, 2 * np.pi, 12)
    assert np.array_equal(clone_outcomes(params, stack), clone_outcomes(params, states))


@settings(max_examples=200, deadline=None)
@given(_states)
def test_state_stack_rotations_equal_the_reference_bitwise(states):
    stack = cloner.StateStack(states)
    assert np.array_equal(stack.rotations, np.array([measurement_rotation(psi) for psi in states]))
    for w in stack.rotations:
        assert np.allclose(w @ w.conj().T, np.eye(2), atol=TOL)


def test_measurement_probabilities_of_no_states():
    assert measurement_path_probabilities(np.zeros(12), []).shape == (0, 4)


@settings(max_examples=100, deadline=None)
@given(_spec_and_params, _states)
def test_kernel_amplitudes_match_evolve(spec_params, states):
    spec, params = spec_params
    mesh = build_mesh(spec, params)
    for psi in states:
        got = np.ravel(cloner._coincidence_amplitudes(mesh.tolist(), psi.ket()))
        state = evolve(cloner.INPUT_OCCUPATION, mesh @ prep_unitary(psi))
        oracle = [state.amplitude(p) for p in cloner.COINCIDENCE_PATTERNS]
        assert np.max(np.abs(got - oracle)) < TOL


def test_zero_support_gives_zero_outcome(monkeypatch):
    # A mesh swapping modes 0 and 3 routes both photons of |0> into the
    # clone-1 pair: no coincidence is possible.
    swap = np.eye(4, dtype=complex)[[3, 1, 2, 0]]
    for owner in (cloner, fock):
        monkeypatch.setattr(owner, "build_mesh", lambda spec, params: swap)
    zero = CloningOutcome(f1=0.0, f2=0.0, p_post=0.0)
    psi = QubitState(0.0, 0.0)
    assert clone_outcomes(np.zeros(12), [psi, psi]).tolist() == [[0.0, 0.0, 0.0]] * 2
    assert run_cloner(np.zeros(12), psi)[1] == zero
    assert measurement_path_outcome(np.zeros(12), psi) == zero
    assert np.all(measurement_path_probabilities(np.zeros(12), [psi])[0] == 0.0)


def test_kernel_rejects_wrong_phase_count():
    psi = QubitState.equatorial(0.0)
    with pytest.raises(ValueError, match="expected 12 phases"):
        clone_outcomes(np.zeros(8), [psi])
    with pytest.raises(ValueError, match="expected 8 phases"):
        measurement_path_probabilities(np.zeros(12), [psi], CUSTOM_MESH)[0]


def test_kernel_rejects_non_four_mode_mesh():
    spec = MeshSpec(mode_count=5, cell_pairs=((0, 1),))
    with pytest.raises(ValueError, match="mode_count 4"):
        clone_outcomes(np.zeros(2), [QubitState(0.0, 0.0)], spec)
    with pytest.raises(ValueError, match="mode_count 4"):
        measurement_path_probabilities(np.zeros(2), [QubitState(0.0, 0.0)], spec)[0]
