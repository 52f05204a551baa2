"""Acceptance gate: ten end-to-end criteria, one PASS/FAIL line each.

Each test prints a single ``[PASS]``/``[FAIL]`` line (bypassing capture so
the lines always appear in the run log) and asserts the same condition.
Slow training-based criteria share one cached noiseless training run.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm, logm

from vclone import cloner, fock, mesh, optimizer, sampler
from vclone.cloner import SEMICLASSICAL_FIDELITY, TRAINING_PHASES, QubitState
from vclone.optimizer import NMConfig, nelder_mead, pc_task, sd_task, train, validate_sweep

from sd_pairs import DEFAULT_SD_PAIRS

# Reference optima for the four default two-state pairs, frozen from an
# independent many-restart cross-seeded run (scipy Nelder-Mead + Powell).
SD_REFERENCE_COSTS = (
    0.061439390817705,
    0.061439390817705,
    0.061439390817705,
    0.500001358004,
)


@pytest.fixture
def record(capfd):
    """Emit one uncaptured [PASS]/[FAIL] line per criterion, then assert."""

    def _record(criterion: int, passed: bool, detail: str) -> None:
        status = "PASS" if passed else "FAIL"
        with capfd.disabled():
            print(f"\n[{status}] criterion {criterion}: {detail}", flush=True)
        assert passed, f"criterion {criterion}: {detail}"

    return _record


@functools.lru_cache(maxsize=1)
def trained_pc():
    """Noiseless phase-covariant training: 20 restarts x 2500 evaluations."""
    cfg = NMConfig(max_evaluations=2500)
    best, traces = train(pc_task(), replace(cfg, seed=0), restarts=20)
    total = sum(t.n_evaluations for t in traces)
    return best, total


def test_criterion_01_phase_covariant_optimum(record):
    best, total_evaluations = trained_pc()
    fids = []
    for phi in TRAINING_PHASES:
        _, out = fock.run_cloner(best.best_point, QubitState.equatorial(phi))
        fids.append((out.f1, out.f2))
    close = all(
        abs(f1 - 0.8536) < 0.005 and abs(f2 - 0.8536) < 0.005 for f1, f2 in fids
    )
    balanced = all(abs(f1 - f2) <= 0.01 for f1, f2 in fids)
    worst = max(abs(f - 0.8536) for pair in fids for f in pair)
    record(
        1,
        close and balanced and total_evaluations <= 50_000,
        f"trained fidelities within {worst:.2e} of 0.8536 "
        f"(|F1-F2| <= 0.01, {total_evaluations} evaluations)",
    )


def test_criterion_02_validation_sweep(record):
    best, _ = trained_pc()
    rows = validate_sweep(best.best_point, count=50)
    worst = min(min(f1, f2) for _, f1, f2, _ in rows)
    mean = float(np.mean([(f1 + f2) / 2 for _, f1, f2, _ in rows]))
    record(
        2,
        worst > SEMICLASSICAL_FIDELITY and mean > 0.84,
        f"50-state sweep: min fidelity {worst:.4f} > 0.750, mean {mean:.4f} > 0.84",
    )


def test_criterion_03_universal_bound_constant(record):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        psi = QubitState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        a = np.array(psi.ket())
        perp = np.array([-np.conj(a[1]), np.conj(a[0])])
        rho = (5 / 6) * np.outer(a, a.conj()) + (1 / 6) * np.outer(perp, perp.conj())
        worst = max(worst, abs(fock.fidelity(rho, psi) - 5 / 6))
    record(3, worst < 1e-12, f"(5/6,1/6) mixture fidelity off 5/6 by {worst:.1e}")


def test_criterion_04_two_design_identity(record):
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        lhs, rhs = fock.design_identity_check(rho, quadrature_points=10_000)
        worst = max(worst, abs(lhs - rhs))
    record(4, worst < 1e-6, f"quadrature vs 4-point average differ by {worst:.1e}")


def test_criterion_05_hong_ou_mandel(record):
    state = fock.evolve((1, 1), mesh.balanced_coupler())
    p_coincidence = abs(state.amplitudes.get((1, 1), 0.0)) ** 2
    record(5, p_coincidence < 1e-12, f"coincidence probability {p_coincidence:.1e}")


def _homomorphism_matrix(u: np.ndarray, n: int):
    """Lift of u to the n-photon sector via expm of the lifted generator."""
    m = u.shape[0]
    h = logm(u) / 1j
    patterns = fock.enumerate_patterns(n, m)
    index = {p: k for k, p in enumerate(patterns)}
    gen = np.zeros((len(patterns), len(patterns)), dtype=complex)
    for s in patterns:
        for j in range(m):
            if s[j] == 0:
                continue
            for i in range(m):
                t = list(s)
                t[j] -= 1
                amp = math.sqrt(s[j]) * math.sqrt(t[i] + 1)
                t[i] += 1
                gen[index[tuple(t)], index[s]] += h[i, j] * amp
    return expm(1j * gen), patterns, index


def test_criterion_06_permanent_and_evolve_oracles(record):
    rng = np.random.default_rng(6)
    worst_perm = 0.0
    for k in range(1000):
        dim = 1 + k % 6
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        worst_perm = max(worst_perm, abs(fock.permanent(a) - fock.permanent_naive(a)))

    worst_evolve = 0.0
    for seed in range(5):
        u = mesh.build_mesh(
            mesh.MeshSpec.four_mode_core(),
            np.random.default_rng(60 + seed).uniform(0, 2 * math.pi, 12),
        )
        big_u, patterns, index = _homomorphism_matrix(u, n=2)
        for occupation in ((1, 1, 0, 0), (0, 1, 0, 1), (2, 0, 0, 0)):
            state = fock.evolve(occupation, u)
            column = big_u[:, index[occupation]]
            for pattern, row in zip(patterns, range(len(patterns))):
                worst_evolve = max(
                    worst_evolve,
                    abs(state.amplitudes.get(pattern, 0.0) - column[row]),
                )
    record(
        6,
        worst_perm < 1e-10 and worst_evolve < 1e-10,
        f"Ryser vs naive off by {worst_perm:.1e}; "
        f"evolve vs homomorphism lift off by {worst_evolve:.1e}",
    )


def test_criterion_07_probability_conservation(record):
    rng = np.random.default_rng(7)
    worst_total = 0.0
    p_bounds_ok = True
    for _ in range(50):
        params = rng.uniform(0, 2 * math.pi, 12)
        u = mesh.build_mesh(mesh.MeshSpec.four_mode_core(), params)
        state = fock.evolve((0, 1, 0, 1), u)
        total = sum(abs(a) ** 2 for a in state.amplitudes.values())
        worst_total = max(worst_total, abs(total - 1.0))
        psi = QubitState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        _, out = fock.run_cloner(params, psi)
        p_bounds_ok &= 0.0 <= out.p_post <= 1.0
    record(
        7,
        worst_total < 1e-10 and p_bounds_ok,
        f"evolve norm off by {worst_total:.1e}; all P_post in [0,1]",
    )


def test_criterion_08_optimizer_benchmarks(record):
    def rosenbrock(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    trace = nelder_mead(rosenbrock, [-1.2, 1.0], NMConfig(max_evaluations=5000))
    rosen_ok = bool(np.allclose(trace.best_point, [1.0, 1.0], atol=1e-3))

    wins_reboot = wins_plain = 0
    for seed in range(50):
        init = np.random.default_rng(seed).uniform(-2, 2, 6)
        for label, reboots in (("reboot", 20), ("plain", 0)):
            noise = np.random.default_rng(10_000 + seed)

            def cost(x, noise=noise):
                return float(np.sum(np.asarray(x) ** 2) + noise.normal(0, 0.01))

            cfg = NMConfig(
                max_evaluations=1500,
                stagnation_window=30,
                max_reboots=reboots,
                seed=seed,
            )
            result = nelder_mead(cost, init, cfg)
            success = float(np.sum(np.asarray(result.best_point) ** 2)) < 0.02
            if label == "reboot":
                wins_reboot += success
            else:
                wins_plain += success
    record(
        8,
        rosen_ok and wins_reboot > wins_plain,
        f"Rosenbrock solved to 1e-3; noisy quadratic successes "
        f"{wins_reboot}/50 with reboots vs {wins_plain}/50 without",
    )


def test_criterion_09_state_dependent_pairs(record):
    gaps = []
    for pair_index, (psi_a, psi_b) in enumerate(DEFAULT_SD_PAIRS):
        cfg = NMConfig(max_evaluations=3000)
        best, _ = train(
            sd_task(psi_a, psi_b, lam=1.0), replace(cfg, seed=90 + pair_index), restarts=12
        )
        gaps.append(best.best_cost - SD_REFERENCE_COSTS[pair_index])
    worst = max(gaps)
    record(
        9,
        all(abs(g) < 1e-3 for g in gaps),
        f"all 4 pair optima within {worst:.1e} of frozen references",
    )


def test_criterion_10_shot_noise(record):
    best, _ = trained_pc()
    params = best.best_point
    psi = QubitState.equatorial(0.7)
    exact = cloner.measurement_path_outcome(params, psi)
    reps = 200
    f1s, f2s = [], []
    for seed in range(reps):
        evaluate = sampler.sampled_evaluator(sampler.NoiseConfig(shots=10_000, seed=seed))
        f1, f2, _ = evaluate(params, [psi])[0]
        f1s.append(f1)
        f2s.append(f2)
    unbiased = True
    for values, truth in ((f1s, exact.f1), (f2s, exact.f2)):
        sem = np.std(values, ddof=1) / math.sqrt(reps)
        unbiased &= abs(np.mean(values) - truth) < 3 * sem + 1e-12

    successes = 0
    runs = 20
    for run in range(runs):
        # One shared task; restart r draws from noise seed run * 100 + r.
        noise = sampler.NoiseConfig(shots=5000, seed=run * 100)
        noisy_task = pc_task(evaluator=sampler.sampled_evaluator(noise))
        noisy_best, _ = train(noisy_task, NMConfig(seed=run * 1000), restarts=4)
        rows = validate_sweep(noisy_best.best_point, count=50)
        worst = min(min(f1, f2) for _, f1, f2, _ in rows)
        successes += worst > SEMICLASSICAL_FIDELITY
    record(
        10,
        unbiased and successes >= 0.9 * runs,
        f"estimator unbiased at N=1e4; noisy training beat 0.750 bound in "
        f"{successes}/{runs} runs",
    )
