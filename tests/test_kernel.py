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

from vclone import cloner
from vclone.cloner import (
    DEFAULT_RAILS,
    CloningOutcome,
    QubitState,
    clone_outcomes,
    measurement_path_outcome,
    measurement_path_probabilities,
    prep_phases,
    run_cloner,
)
from vclone.fock import evolve
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
_rails = st.sampled_from([DEFAULT_RAILS, DEFAULT_RAILS.swapped_clones()])
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


@st.composite
def _random_rails(draw):
    """Any RailMap in the kernel's domain: disjoint clone pairs, ancilla |0> off the input rails."""
    c = draw(st.permutations(range(4)))
    i = draw(st.permutations(range(4)))
    a0 = draw(st.sampled_from(i[2:]))
    a1 = draw(st.sampled_from([m for m in range(4) if m != a0]))
    return cloner.RailMap(clone1_rails=(c[0], c[1]), clone2_rails=(c[2], c[3]),
                          input_rails=(i[0], i[1]), ancilla_rails=(a0, a1))


def _assert_outcomes_close(got: CloningOutcome, want: CloningOutcome) -> None:
    assert abs(got.f1 - want.f1) < TOL
    assert abs(got.f2 - want.f2) < TOL
    assert abs(got.p_post - want.p_post) < TOL


@settings(max_examples=200, deadline=None)
@given(_spec_and_params, _states, _rails)
def test_kernel_matches_run_cloner(spec_params, states, rails):
    spec, params = spec_params
    outs = clone_outcomes(params, states, spec, rails)
    assert outs.shape == (len(states), 3)
    for psi, row in zip(states, outs):
        _, oracle = run_cloner(params, psi, spec, rails)
        _assert_outcomes_close(CloningOutcome(*row), oracle)
        assert np.all((0.0 <= row) & (row <= 1.0))


def measurement_rotation(psi):
    """Reference measurement stage W on a clone pair: first row <psi|, so psi maps to the |0> rail."""
    c, s = math.cos(psi.theta), math.sin(psi.theta)
    e = np.exp(1j * psi.phi)
    return np.array([[c, s / e], [-s * e, c]], dtype=complex)


def _measured_oracle(params, psi, spec, rails):
    """Coincidence probabilities of the full prep -> mesh -> measurement unitary via fock.evolve."""
    w = measurement_rotation(psi)
    meas = cloner._embed_pair(w, rails.clone2_rails, 4) @ cloner._embed_pair(w, rails.clone1_rails, 4)
    u = meas @ build_mesh(spec, params) @ prep_phases(psi, rails).stage_unitary(4)
    state = evolve(rails.input_occupation(), u)
    return np.array([state.probability(p) for p in cloner._coincidence_patterns(rails)])


@settings(max_examples=200, deadline=None)
@given(_spec_and_params, _states.map(lambda s: s[0]), _rails)
def test_measurement_probabilities_match_evolve(spec_params, psi, rails):
    spec, params = spec_params
    oracle = _measured_oracle(params, psi, spec, rails)
    got = measurement_path_probabilities(params, [psi], spec, rails)[0]
    assert np.max(np.abs(got - oracle)) < TOL
    _assert_outcomes_close(measurement_path_outcome(params, psi, spec, rails),
                           run_cloner(params, psi, spec, rails)[1])


@settings(max_examples=200, deadline=None)
@given(_random_spec_and_params, _states, _random_rails())
def test_batched_measurement_probabilities_match_evolve(spec_params, states, rails):
    # One mesh build for the whole list; every row must equal its state's oracle.
    spec, params = spec_params
    got = measurement_path_probabilities(params, states, spec, rails)
    assert got.shape == (len(states), 4)
    for row, psi in zip(got, states):
        assert np.max(np.abs(row - _measured_oracle(params, psi, spec, rails))) < TOL


@settings(max_examples=100, deadline=None)
@given(_random_specs, st.integers(1, 6), st.integers(0, 2**32 - 1), _states, _random_rails())
def test_batched_kernel_rows_equal_single_point_calls(spec, batch, seed, states, rails):
    # A (B, n_phases) stack gives (B, S, 3) outcomes and (B, S, 4) probabilities;
    # each row is bitwise the call on its own phase vector.
    params = np.random.default_rng(seed).uniform(-10.0, 10.0, (batch, spec.n_phases))
    singles = np.stack([clone_outcomes(p, states, spec, rails) for p in params])
    batched = clone_outcomes(params, states, spec, rails)
    assert batched.shape == (batch, len(states), 3)
    assert np.array_equal(batched, singles)
    stacked = measurement_path_probabilities(params, states, spec, rails)
    assert stacked.shape == (batch, len(states), 4)
    for p, rows in zip(params, stacked):
        assert np.array_equal(rows, measurement_path_probabilities(p, states, spec, rails))


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
@given(_spec_and_params, _states, _rails)
def test_kernel_amplitudes_match_evolve(spec_params, states, rails):
    spec, params = spec_params
    mesh = build_mesh(spec, params)
    for psi in states:
        got = np.ravel(cloner._coincidence_amplitudes(mesh.tolist(), psi.ket(), rails))
        state = evolve(rails.input_occupation(), mesh @ prep_phases(psi, rails).stage_unitary(4))
        oracle = [state.amplitude(p) for p in cloner._coincidence_patterns(rails)]
        assert np.max(np.abs(got - oracle)) < TOL


def test_zero_support_gives_zero_outcome(monkeypatch):
    # A mesh swapping modes 0 and 3 routes both photons of |0> into the
    # clone-1 pair: no coincidence is possible.
    swap = np.eye(4, dtype=complex)[[3, 1, 2, 0]]
    monkeypatch.setattr(cloner, "build_mesh", lambda spec, params: swap)
    zero = CloningOutcome(f1=0.0, f2=0.0, p_post=0.0)
    psi = QubitState.zero()
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
        clone_outcomes(np.zeros(2), [QubitState.zero()], spec)
    with pytest.raises(ValueError, match="mode_count 4"):
        measurement_path_probabilities(np.zeros(2), [QubitState.zero()], spec)[0]


def test_railmap_rejects_maps_outside_the_kernel_domain():
    with pytest.raises(ValueError, match="disjoint"):
        cloner.RailMap(clone1_rails=(0, 1), clone2_rails=(1, 2), input_rails=(2, 3), ancilla_rails=(3, 0))
    with pytest.raises(ValueError, match="ancilla"):
        cloner.RailMap(input_rails=(1, 2), ancilla_rails=(2, 0))
