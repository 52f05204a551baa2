"""Reference copies of the kernel, sampler and cost functions as they were before
their numpy calls were trimmed, for the bit-for-bit tests in test_reference.py.

Each function keeps the arithmetic and the call layout of its old production
form: the mesh starts from a tiled identity and every cell multiplies through
``einsum``; ``outcomes`` stacks its columns; ``sample_counts`` draws each
owner's rows through a boolean mask; ``cloning_costs`` sums the cost of each
row in Python floats.
"""

import numpy as np

from vclone.cloner import ANCILLA_MODE, INPUT_RAILS, ZERO_SUPPORT_TOL, StateStack, four_mode_spec
from vclone.mesh import TWO_PI, MeshSpec, balanced_coupler, wrap_phases


def mzi_unitary(theta, phi):
    h = 0.5 * (np.asarray(theta) % TWO_PI)
    g = 1j * np.exp(1j * h)
    ge = g * np.exp(1j * (np.asarray(phi) % TWO_PI))
    s, c = np.sin(h), np.cos(h)
    u = np.empty(h.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = ge * s
    u[..., 0, 1] = g * c
    u[..., 1, 0] = ge * c
    u[..., 1, 1] = -g * s
    return u


def build_mesh(spec: MeshSpec, params) -> np.ndarray:
    params = np.atleast_1d(wrap_phases(params))
    if params.shape[-1] != spec.n_phases:
        raise ValueError(f"expected {spec.n_phases} phases for this mesh, got {params.shape[-1]}")
    u = np.tile(np.eye(spec.mode_count, dtype=complex), params.shape[:-1] + (1, 1))
    cells = mzi_unitary(params[..., 0::2], params[..., 1::2])
    for k, (i, _) in enumerate((*spec.cell_pairs, *spec.fixed_couplers)):
        block = cells[..., k, :, :] if k < len(spec.cell_pairs) else balanced_coupler()
        u[..., i : i + 2, :] = np.einsum("...ij,...jk->...ik", block, u[..., i : i + 2, :])
    return u


def _coincidence_amplitudes(u, kets):
    u, kets = np.asarray(u)[..., None, :, :], np.asarray(kets)
    v = u[..., INPUT_RAILS[0]] * kets[..., 0, None] + u[..., INPUT_RAILS[1]] * kets[..., 1, None]
    w = u[..., ANCILLA_MODE]
    return v[..., :2, None] * w[..., None, 2:] + w[..., :2, None] * v[..., None, 2:]


def measurement_path_probabilities(params, states, spec=None) -> np.ndarray:
    stack = StateStack(states)
    amps = _coincidence_amplitudes(build_mesh(four_mode_spec(spec), params), stack.kets)
    w = stack.rotations
    return (np.abs(w @ amps @ w.transpose(0, 2, 1)) ** 2).reshape(*amps.shape[:-2], 4)


def outcomes(patterns, shots=1) -> np.ndarray:
    p = np.asarray(patterns)
    total = p.sum(axis=-1)
    support = np.asarray(total >= ZERO_SUPPORT_TOL)
    denominator = np.where(support, total, 1.0)
    out = np.stack([(p[..., 0] + p[..., 1]) / denominator, (p[..., 0] + p[..., 2]) / denominator,
                    total / shots], axis=-1)
    np.clip(out, 0.0, 1.0, out=out)
    out[~support] = 0.0
    return out


def sample_counts(probabilities, shots, rng, owners) -> np.ndarray:
    """The owned form only: the rows of owner r, in order, in one call on ``rng[r]``."""
    p = np.asarray(probabilities, dtype=float)
    if (p < -1e-12).any():
        raise ValueError("probabilities must be non-negative")
    p = np.maximum(p, 0.0)
    total = p.sum(axis=-1, keepdims=True)
    if (total > 1.0 + 1e-9).any():
        raise ValueError(f"probabilities sum to {total.max()} > 1")
    full = np.concatenate([p, np.maximum(1.0 - total, 0.0)], axis=-1)
    full /= full.sum(axis=-1, keepdims=True)
    counts = np.empty(full.shape, dtype=np.int64)
    for r in dict.fromkeys(owners.tolist()):
        rows = owners == r
        counts[rows] = rng[r].multinomial(shots, full[rows])
    return counts[..., :-1]


def cloning_costs(outs, lam) -> np.ndarray:
    """The cloning cost of each row of (B, S, 3) outcomes: the symmetric terms of every
    state's (F1, F2), plus lam times those of the first two states' P_post if lam is set."""
    totals = []
    for row in outs.tolist():
        total = 0.0
        for f1, f2, _ in row:
            total += (1.0 - f1) ** 2 + (1.0 - f2) ** 2 + (f1 - f2) ** 2
        if lam is not None:
            pa, pb = row[0][2], row[1][2]
            total += lam * ((1.0 - pa) ** 2 + (1.0 - pb) ** 2 + (pa - pb) ** 2)
        totals.append(total)
    return np.array(totals)
