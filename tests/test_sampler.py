import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vclone import cloner, optimizer
from vclone.cloner import QubitState, measurement_path_outcome, measurement_path_probabilities
from vclone.optimizer import NMConfig, nelder_mead, pc_task
from vclone.sampler import NoiseConfig, estimate_outcome, sample_counts, sampled_evaluator


def test_degenerate_distribution():
    counts = sample_counts([1.0], 100, rng=0)
    assert counts.tolist() == [100]


def test_zero_probability_pattern_never_counted():
    rng = np.random.default_rng(1)
    for _ in range(20):
        counts = sample_counts([0.5, 0.0, 0.3], 1000, rng)
        assert counts[1] == 0


def test_counts_conservation():
    rng = np.random.default_rng(2)
    probs = [0.2, 0.1, 0.3]  # 0.4 rejected
    for _ in range(50):
        counts = sample_counts(probs, 500, rng)
        assert counts.sum() <= 500


def test_multinomial_statistics():
    probs = np.array([0.25, 0.25, 0.25, 0.25])
    n = 100_000
    totals = np.zeros(4)
    n_seeds = 100
    for seed in range(n_seeds):
        totals += sample_counts(probs, n, rng=seed)
    means = totals / n_seeds
    tol = 3 * np.sqrt(n * 0.25 * 0.75 / n_seeds)
    assert np.all(np.abs(means - n * probs) < tol)


def test_seed_determinism():
    a = sample_counts([0.3, 0.3, 0.2], 1000, rng=42)
    b = sample_counts([0.3, 0.3, 0.2], 1000, rng=42)
    assert np.array_equal(a, b)


def test_invalid_probability_vector_rejected():
    with pytest.raises(ValueError):
        sample_counts([0.7, 0.7], 100, rng=0)
    with pytest.raises(ValueError):
        sample_counts([-0.1, 0.5], 100, rng=0)


# ------------------------------------------------------------------- batches

def test_batch_draw_equals_sequential_draws():
    probs = np.random.default_rng(7).dirichlet(np.ones(6), size=4)[:, :5]  # (4, 5), rows sum < 1
    batched_rng, sequential_rng = np.random.default_rng(8), np.random.default_rng(8)
    batched = sample_counts(probs, 5000, batched_rng)
    sequential = np.array([sample_counts(row, 5000, sequential_rng) for row in probs])
    assert batched.shape == (4, 5)
    assert np.array_equal(batched, sequential)
    assert batched_rng.random() == sequential_rng.random()


def test_owned_rows_draw_from_their_own_generators():
    # One call for rows of three owners, interleaved: owner r's rows, in order,
    # get the counts of one call on its own generator.
    probs = np.random.default_rng(9).dirichlet(np.ones(5), size=(6, 2))[..., :4]  # (6, 2, 4)
    owners = np.array([2, 0, 2, 1, 0, 2])
    rngs = {r: np.random.default_rng(20 + r) for r in (0, 1, 2)}
    counts = sample_counts(probs, 3000, rngs, owners)
    assert counts.shape == (6, 2, 4)
    for r in (0, 1, 2):
        alone = sample_counts(probs[owners == r], 3000, np.random.default_rng(20 + r))
        assert np.array_equal(counts[owners == r], alone)
    with pytest.raises(ValueError):
        sample_counts(np.array([[0.7, 0.7]]), 100, rngs, np.array([0]))


@pytest.mark.parametrize("bad_row", [[0.7, 0.5, 0.0], [0.5, -0.1, 0.2]])
def test_invalid_row_in_batch_rejected(bad_row):
    with pytest.raises(ValueError):
        sample_counts([[0.2, 0.3, 0.1], bad_row], 100, rng=0)


def test_batched_noisy_task_matches_state_by_state_sampling():
    # Reference: the same noisy pc cost with one mesh build, one draw and
    # one estimate per state, on an equally seeded generator.
    noise = NoiseConfig(shots=5000, seed=13)
    rng = np.random.default_rng(noise.seed)
    states = {f"phi={phi:.4f}": QubitState.equatorial(phi) for phi in cloner.TRAINING_PHASES}

    def reference(params):
        total, outcomes = 0.0, []
        for psi in states.values():
            probs = measurement_path_probabilities(params, [psi])[0]
            out = estimate_outcome(sample_counts(probs, noise.shots, rng), noise.shots)
            total += optimizer._symmetric_terms(out.f1, out.f2)
            outcomes.append((out.f1, out.f2, out.p_post))
        return total, np.array(outcomes)

    init = np.random.default_rng(14).uniform(0, 2 * np.pi, 12)
    cfg = NMConfig(max_evaluations=200)
    task = pc_task(evaluator=sampled_evaluator(noise))
    got = nelder_mead(task.cost, init, cfg, task.states)
    want = nelder_mead(reference, init, cfg, list(states))
    assert got.n_evaluations == want.n_evaluations == 200
    assert got.states == want.states
    assert np.array_equal(got.costs, want.costs)
    assert np.array_equal(got.outcomes, want.outcomes)


# ----------------------------------------------------------------- estimator

def test_all_counts_in_success_rails():
    est = estimate_outcome([60, 0, 0, 0], shots=100)
    assert est.f1 == 1.0 and est.f2 == 1.0
    assert est.p_post == pytest.approx(0.6)
    assert est.valid


def test_zero_coincidences_flagged_invalid():
    est = estimate_outcome([0, 0, 0, 0], shots=100)
    assert not est.valid
    assert est.f1 == est.f2 == est.p_post == 0.0


def test_few_coincidences_in_many_shots_are_support():
    # At 10**13 shots, 5 coincidences give P_post = 5e-13, below ZERO_SUPPORT_TOL; the
    # row is still valid, so its fidelities are the counted ones, not zeros.
    est = estimate_outcome([3, 1, 1, 0], 10**13)
    assert est.valid
    assert (est.f1, est.f2, est.p_post) == (0.8, 0.8, 5e-13)


_count_rows = st.lists(
    st.one_of(st.just((0, 0, 0, 0)), st.tuples(*[st.integers(0, 3000)] * 4)), min_size=1, max_size=8
)


def _scalar_estimate(counts, shots):
    """The estimator row by row in Python scalars: the reference for ``cloner.outcomes``."""
    def err(p, n):
        return math.sqrt(max(p * (1.0 - p), 0.0) / n) if n > 0 else 0.0

    c00, c01, c10, c11 = counts
    coinc = c00 + c01 + c10 + c11
    f1, f2 = ((c00 + c01) / coinc, (c00 + c10) / coinc) if coinc else (0.0, 0.0)
    p = coinc / shots
    return (f1, f2, p, err(f1, coinc), err(f2, coinc), err(p, shots), coinc, shots, coinc > 0)


_ESTIMATES = ("f1", "f2", "p_post", "f1_err", "f2_err", "p_err", "n_coincidences", "shots", "valid")


@settings(max_examples=200, deadline=None)
@given(_count_rows, st.integers(0, 5000))
def test_outcomes_of_counts_equal_estimate_outcome(rows, rejected):
    # cloner.outcomes on count rows, as the sampled evaluator calls it, against the
    # scalar reference and estimate_outcome, all-zero rows included.
    shots = max(sum(row) for row in rows) + rejected or 1
    batch = cloner.outcomes(np.array(rows), shots)
    for row, estimate in zip(rows, batch.tolist()):
        one = estimate_outcome(row, shots)
        values = tuple(getattr(one, k) for k in _ESTIMATES)
        assert values == _scalar_estimate(row, shots)
        assert tuple(estimate) == values[:3]
        assert [type(getattr(one, f.name)) for f in dataclasses.fields(one)] == [
            float, float, float, int, int, bool]


def test_estimate_outcome_rejects_wrong_pattern_count():
    for counts in ([1, 2, 3], [[1, 2, 3, 4]] * 2):
        with pytest.raises(ValueError):
            estimate_outcome(counts, 100)


def test_estimator_fractions():
    est = estimate_outcome([10, 20, 30, 40], shots=200)
    assert est.f1 == pytest.approx(0.3)
    assert est.f2 == pytest.approx(0.4)
    assert est.p_post == pytest.approx(0.5)
    assert est.n_coincidences == 100
    assert est.f1_err == pytest.approx(np.sqrt(0.3 * 0.7 / 100))


def test_sampled_evaluator_needs_shots():
    with pytest.raises(ValueError):
        sampled_evaluator(NoiseConfig(shots=None))


def test_estimator_unbiased():
    # 200 seeded repetitions at N = 1e4 on a fixed circuit; the mean
    # estimate must sit within 3 standard errors of the exact value.
    rng = np.random.default_rng(4)
    params = rng.uniform(0, 2 * np.pi, 12)
    psi = QubitState.equatorial(0.7)
    exact = measurement_path_outcome(params, psi)
    reps = 200
    f1s, f2s = [], []
    for seed in range(reps):
        evaluate = sampled_evaluator(NoiseConfig(shots=10_000, seed=seed))
        f1, f2, _ = evaluate(params, [psi])[0]
        f1s.append(f1)
        f2s.append(f2)
    for values, truth in ((f1s, exact.f1), (f2s, exact.f2)):
        mean = np.mean(values)
        sem = np.std(values, ddof=1) / np.sqrt(reps)
        assert abs(mean - truth) < 3 * sem + 1e-12


def test_large_n_consistency():
    # N = 1e6: estimates concentrate tightly around the exact fidelities.
    rng = np.random.default_rng(5)
    params = rng.uniform(0, 2 * np.pi, 12)
    psi = QubitState.equatorial(2.0)
    exact = measurement_path_outcome(params, psi)
    misses = 0
    trials = 50
    for seed in range(trials):
        evaluate = sampled_evaluator(NoiseConfig(shots=1_000_000, seed=seed))
        f1, f2, _ = evaluate(params, [psi])[0]
        if abs(f1 - exact.f1) >= 0.005 or abs(f2 - exact.f2) >= 0.005:
            misses += 1
    assert misses == 0


def test_sampled_evaluator_deterministic_stream():
    rng = np.random.default_rng(6)
    params = rng.uniform(0, 2 * np.pi, 12)
    psi = QubitState.equatorial(0.2)

    def collect():
        evaluate = sampled_evaluator(NoiseConfig(shots=2000, seed=11))
        return [(evaluate(params, [psi])[0, 0], evaluate(params, [psi])[0, 1]) for _ in range(3)]

    assert collect() == collect()


def test_noise_config_validation():
    for shots in (0, 2**63):
        with pytest.raises(ValueError):
            NoiseConfig(shots=shots)
    NoiseConfig(shots=None)  # exact mode allowed


def test_most_shots_sample():
    # The largest budget NoiseConfig takes is one numpy's multinomial can draw.
    shots = NoiseConfig(shots=2**63 - 1).shots
    counts = sample_counts([0.1, 0.2, 0.3, 0.3], shots, rng=0)
    est = estimate_outcome(counts, shots)
    assert est.valid and est.p_post == pytest.approx(0.9, abs=1e-6)
