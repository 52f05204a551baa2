import math

import numpy as np
import pytest

from vclone import cloner, fock
from vclone.cloner import SEMICLASSICAL_FIDELITY, CloningOutcome, QubitState, StateStack, measurement_path_outcome
from vclone.fock import (
    FockAmplitudes,
    PostselectionRule,
    design_identity_check,
    evolve,
    fidelity,
    joint_logical_state,
    postselect,
    prep_unitary,
    reduced_clone,
    run_cloner,
    semiclassical_monte_carlo,
)
from vclone.mesh import MeshSpec
from vclone.optimizer import pc_task, sd_task

from sd_pairs import DEFAULT_SD_PAIRS


def _random_params(rng):
    return rng.uniform(0, 2 * np.pi, 12)


# -------------------------------------------------------------------- states

def test_qubit_state_ket():
    psi = QubitState(theta=np.pi / 4, phi=np.pi / 2)
    assert np.allclose(np.array(psi.ket()), [1 / np.sqrt(2), 1j / np.sqrt(2)], atol=1e-12)


def test_training_set_is_four_equatorial_states():
    assert cloner.TRAINING_PHASES == (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)
    for phi in cloner.TRAINING_PHASES:
        psi = QubitState.equatorial(phi)
        assert psi.theta == np.pi / 4


def test_device_frame_constants():
    # One photon on the input |0> rail and one on the ancilla mode; pattern (a, b)
    # puts one photon on clone-1 rail a and one on clone-2 rail b.
    occupation = [0, 0, 0, 0]
    for mode in (cloner.INPUT_RAILS[0], cloner.ANCILLA_MODE):
        occupation[mode] += 1
    assert cloner.INPUT_OCCUPATION == tuple(occupation) == (0, 1, 0, 1)
    assert cloner.CLONE1_RAILS + cloner.CLONE2_RAILS == (0, 1, 2, 3)  # the kernel's rows of U
    assert cloner.ANCILLA_MODE not in cloner.INPUT_RAILS
    assert cloner.COINCIDENCE_PATTERNS == tuple(_pattern(a, b) for a in (0, 1) for b in (0, 1))


# -------------------------------------------------------------- preparation

def test_prep_zero_state_stays_on_rail():
    stage = prep_unitary(QubitState(0.0, 0.0))
    state = evolve((0, 1, 0, 0), stage)
    assert state.amplitude((0, 1, 0, 0)) == pytest.approx(1.0, abs=1e-12)


def test_prep_plus_state_balanced():
    stage = prep_unitary(QubitState.equatorial(0.0))
    state = evolve((0, 1, 0, 0), stage)
    assert state.amplitude((0, 1, 0, 0)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert state.amplitude((0, 0, 1, 0)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_prep_equatorial_y_state():
    stage = prep_unitary(QubitState(np.pi / 4, np.pi / 2))
    state = evolve((0, 1, 0, 0), stage)
    assert state.amplitude((0, 1, 0, 0)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert state.amplitude((0, 0, 1, 0)) == pytest.approx(1j / np.sqrt(2), abs=1e-12)


def test_prep_leaves_ancilla_alone():
    stage = prep_unitary(QubitState.equatorial(1.0))
    state = evolve((0, 0, 0, 1), stage)
    assert state.amplitude((0, 0, 0, 1)) == pytest.approx(1.0, abs=1e-12)


def test_measurement_zero_state_identity_rotation():
    assert np.allclose(StateStack([QubitState(0.0, 0.0)]).rotations[0], np.eye(2), atol=1e-12)


# ---------------------------------------------------------------- run_cloner

def test_identity_variational_on_plus_state():
    # Variational stage = identity: prep alone, brute-forced by hand over
    # the two-photon patterns.  The input photon splits across the input
    # rails, the ancilla photon stays on mode 3; only the (0,1,0,1)
    # component passes the coincidence rule.
    psi = QubitState.equatorial(0.0)
    state = evolve(cloner.INPUT_OCCUPATION, prep_unitary(psi))
    joint, p_post = postselect(state, PostselectionRule.coincidence(cloner.CLONE1_RAILS, cloner.CLONE2_RAILS))
    assert p_post == pytest.approx(0.5, abs=1e-12)
    rho1 = reduced_clone(joint, 1)
    # Clone 1 collapses onto logical |1> (its photon sits on mode 1).
    assert np.allclose(rho1, np.diag([0.0, 1.0]), atol=1e-12)
    assert fidelity(rho1, psi) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_outcomes_in_range(seed):
    rng = np.random.default_rng(seed)
    psi = QubitState(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
    _, out = run_cloner(_random_params(rng), psi)
    assert 0.0 <= out.f1 <= 1.0
    assert 0.0 <= out.f2 <= 1.0
    assert 0.0 <= out.p_post <= 1.0


def test_run_cloner_zero_support_fallback(monkeypatch):
    monkeypatch.setattr(fock, "postselect", lambda state, rule: (None, 0.0))
    _, out = run_cloner(np.zeros(12), QubitState.equatorial(0.0))
    assert out == CloningOutcome(f1=0.0, f2=0.0, p_post=0.0)


def test_run_cloner_requires_twelve_phases():
    with pytest.raises(ValueError):
        run_cloner(np.zeros(10), QubitState(0.0, 0.0))


# ------------------------------------------------------------ reduced states

def _pattern(a, b):
    """Occupation of one photon on clone-1 rail a and one on clone-2 rail b."""
    occ = [0, 0, 0, 0]
    occ[cloner.CLONE1_RAILS[a]] += 1
    occ[cloner.CLONE2_RAILS[b]] += 1
    return tuple(occ)


def _joint_from_logical(matrix):
    # Lift a 2x2 logical amplitude array onto the coincidence patterns.
    amps = {_pattern(a, b): complex(matrix[a][b]) for a in (0, 1) for b in (0, 1)}
    return FockAmplitudes(n=2, m=4, amplitudes=amps)


def test_reduced_clone_product_state():
    joint = _joint_from_logical([[0, 1], [0, 0]])  # |0>_L x |1>_L
    assert np.allclose(reduced_clone(joint, 1), np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(reduced_clone(joint, 2), np.diag([0.0, 1.0]), atol=1e-12)


def test_reduced_clone_maximally_entangled():
    joint = _joint_from_logical(np.array([[1, 0], [0, 1]]) / np.sqrt(2))
    assert np.allclose(reduced_clone(joint, 1), np.eye(2) / 2, atol=1e-12)
    assert np.allclose(reduced_clone(joint, 2), np.eye(2) / 2, atol=1e-12)


def test_joint_outside_coincidence_support_rejected():
    amps = {(2, 0, 0, 0): 1.0 + 0j}
    with pytest.raises(ValueError):
        joint_logical_state(FockAmplitudes(n=2, m=4, amplitudes=amps))


@pytest.mark.parametrize("seed", range(10))
def test_clone_validity(seed):
    rng = np.random.default_rng(100 + seed)
    psi = QubitState(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
    joint, out = run_cloner(_random_params(rng), psi)
    for which in (1, 2):
        rho = reduced_clone(joint, which)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10


# ------------------------------------------------------------------ fidelity

def test_fidelity_pure_match():
    psi = QubitState(0.3, 1.1)
    a = np.array(psi.ket())
    assert fidelity(np.outer(a, a.conj()), psi) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_five_sixths_mixture():
    psi = QubitState(0.7, 2.3)
    a = np.array(psi.ket())
    perp = np.array([-a[1].conjugate(), a[0].conjugate()])
    rho = (5 / 6) * np.outer(a, a.conj()) + (1 / 6) * np.outer(perp, perp.conj())
    assert fidelity(rho, psi) == pytest.approx(5 / 6, abs=1e-12)


def test_fidelity_maximally_mixed():
    assert fidelity(np.eye(2) / 2, QubitState(0.5, 0.5)) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_rejects_invalid_density():
    with pytest.raises(ValueError):
        fidelity(np.array([[1.0, 0.5], [0.0, 0.0]]), QubitState(0.0, 0.0))
    with pytest.raises(ValueError):
        fidelity(2 * np.eye(2), QubitState(0.0, 0.0))


# -------------------------------------------------- measurement-path parity

@pytest.mark.parametrize("seed", range(100))
def test_dual_path_fidelity_agreement(seed):
    rng = np.random.default_rng(1000 + seed)
    psi = QubitState(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
    params = _random_params(rng)
    _, density_path = run_cloner(params, psi)
    meas_path = measurement_path_outcome(params, psi)
    assert meas_path.f1 == pytest.approx(density_path.f1, abs=1e-10)
    assert meas_path.f2 == pytest.approx(density_path.f2, abs=1e-10)
    assert meas_path.p_post == pytest.approx(density_path.p_post, abs=1e-10)


# ---------------------------------------------------------------- cost terms
# Task.cost is the one definition of each cost; the expected values are sums of
# run_cloner (Fock oracle) outcomes assembled here.

def cost_pc(params):
    return pc_task().cost(params)[0]


def cost_sd(params, psi_a, psi_b, lam):
    return sd_task(psi_a, psi_b, lam).cost(params)[0]


def test_cost_pc_hand_assembled():
    rng = np.random.default_rng(9)
    params = _random_params(rng)
    expected = 0.0
    for phi in cloner.TRAINING_PHASES:
        _, out = run_cloner(params, QubitState.equatorial(phi))
        expected += (1 - out.f1) ** 2 + (1 - out.f2) ** 2 + (out.f1 - out.f2) ** 2
    assert cost_pc(params) == pytest.approx(expected, abs=1e-14)


def test_cost_pc_five_sixths_arithmetic():
    # Hypothetical F1 = F2 = 5/6 on every training state: 4 * 2 * (1/6)^2.
    stub = lambda params, states, restarts: np.tile([5 / 6, 5 / 6, 1.0], (len(params), len(states), 1))
    cost, _ = pc_task(evaluator=stub).cost(np.zeros(12))
    assert cost == pytest.approx(2 / 9, abs=1e-14)


def test_cost_pc_all_perfect_is_zero():
    stub = lambda params, states, restarts: np.ones((len(params), len(states), 3))
    cost, _ = pc_task(evaluator=stub).cost(np.zeros(12))
    assert cost == 0.0


def test_cost_pc_swap_symmetry():
    # Exchanging the roles of clone 1 and clone 2 (F1 <-> F2) leaves the cost unchanged.
    rng = np.random.default_rng(10)
    params = _random_params(rng)
    swapped = lambda params, states, restarts: cloner.clone_outcomes(params, states)[..., [1, 0, 2]]
    assert cost_pc(params) == pytest.approx(pc_task(evaluator=swapped).cost(params)[0], abs=1e-12)


def test_cost_sd_hand_assembled():
    rng = np.random.default_rng(11)
    params = _random_params(rng)
    psi_a = QubitState(np.pi / 4, 0.0)
    psi_b = QubitState(np.pi / 4, np.pi / 2)
    _, out_a = run_cloner(params, psi_a)
    _, out_b = run_cloner(params, psi_b)
    expected = sum(
        (1 - o.f1) ** 2 + (1 - o.f2) ** 2 + (o.f1 - o.f2) ** 2 for o in (out_a, out_b)
    )
    expected += (
        (1 - out_a.p_post) ** 2
        + (1 - out_b.p_post) ** 2
        + (out_a.p_post - out_b.p_post) ** 2
    )
    assert cost_sd(params, psi_a, psi_b, 1.0) == pytest.approx(expected, abs=1e-14)


def test_cost_sd_lambda_zero_drops_regularization():
    rng = np.random.default_rng(12)
    params = _random_params(rng)
    psi_a, psi_b = DEFAULT_SD_PAIRS[0]
    with_reg = cost_sd(params, psi_a, psi_b, 1.0)
    without = cost_sd(params, psi_a, psi_b, 0.0)
    _, out_a = run_cloner(params, psi_a)
    _, out_b = run_cloner(params, psi_b)
    reg = (
        (1 - out_a.p_post) ** 2
        + (1 - out_b.p_post) ** 2
        + (out_a.p_post - out_b.p_post) ** 2
    )
    assert with_reg - without == pytest.approx(reg, abs=1e-12)


def test_cost_sd_rejects_negative_lambda():
    with pytest.raises(ValueError):
        sd_task(*DEFAULT_SD_PAIRS[0], lam=-0.5)


def test_cost_periodicity_on_torus():
    rng = np.random.default_rng(13)
    params = _random_params(rng)
    shift = 2 * np.pi * rng.integers(-2, 3, size=12)
    assert cost_pc(params) == pytest.approx(cost_pc(params + shift), abs=1e-12)


# ------------------------------------------------------------ design identity

def test_design_identity_maximally_mixed():
    lhs, rhs = design_identity_check(np.eye(2) / 2, quadrature_points=500)
    assert lhs == pytest.approx(0.25, abs=1e-12)
    assert rhs == pytest.approx(0.25, abs=1e-12)


def test_design_identity_pole_state():
    lhs, rhs = design_identity_check(np.diag([1.0, 0.0]), quadrature_points=500)
    assert lhs == pytest.approx(0.25, abs=1e-9)
    assert rhs == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_design_identity_random_density(seed):
    rng = np.random.default_rng(200 + seed)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    lhs, rhs = design_identity_check(rho, quadrature_points=10_000)
    assert abs(lhs - rhs) < 1e-6


def test_design_identity_rejects_few_points():
    with pytest.raises(ValueError):
        design_identity_check(np.eye(2) / 2, quadrature_points=10)


# --------------------------------------------------------------- semiclassical

def test_semiclassical_constant():
    assert SEMICLASSICAL_FIDELITY == 0.750


def test_semiclassical_monte_carlo_converges():
    estimate = semiclassical_monte_carlo(1_000_000, seed=1)
    assert estimate == pytest.approx(0.750, abs=0.002)


def fixed_basis_measure_and_prepare(phi_in: float, phi_basis: float) -> float:
    """Expected copy fidelity when measuring along one fixed equatorial basis."""
    p = math.cos((phi_in - phi_basis) / 2.0) ** 2
    return p * p + (1.0 - p) * (1.0 - p)


def test_measure_and_prepare_fixed_matching_basis():
    assert fixed_basis_measure_and_prepare(1.2, 1.2) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------- bound sanity

def test_universal_bound_not_violated_on_random_circuits():
    rng = np.random.default_rng(14)
    bound = 5 / 6 + 1e-6
    for _ in range(100):
        params = _random_params(rng)
        above_on_all = True
        for phi in cloner.TRAINING_PHASES:
            _, out = run_cloner(params, QubitState.equatorial(phi))
            if min(out.f1, out.f2) <= bound:
                above_on_all = False
                break
        assert not above_on_all
