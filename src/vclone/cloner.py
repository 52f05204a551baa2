"""Dual-rail 1->2 qubit cloning on the 4-mode variational device.

Logical frame (0-based mode indices of the 4-mode core):

    input qubit   |0> = mode 1, |1> = mode 2   (photon injected on mode 1)
    ancilla qubit |0> = mode 3, |1> = mode 0   (photon injected on mode 3)
    clone 1       |0> = mode 0, |1> = mode 1
    clone 2       |0> = mode 2, |1> = mode 3

A run prepares the two-photon input, applies the 12-phase variational
mesh, and post-selects on a two-fold coincidence: exactly one photon in
the clone-1 rail pair and one in the clone-2 rail pair.

With one photon per injection rail each accepted amplitude is a 2x2
permanent, so the closed-form kernel (``clone_outcomes``,
``measurement_path_probabilities``) is the whole production path.  The
general Fock path (``run_cloner``) is the test oracle in ``vclone.fock``,
which training never imports.

Only ``outcomes`` forms (F1, F2, P_post), from the four coincidence-pattern
weights after the measurement stage: their probabilities
(``measurement_path_probabilities``) on an exact run, the sampler's counts of
them, which estimate those probabilities, on a noisy one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .mesh import MeshSpec, build_mesh

#: Optimal symmetric equatorial-cloning fidelity, 1/2 + 1/sqrt(8).
OPTIMAL_EQUATORIAL_FIDELITY = 0.5 + 1.0 / math.sqrt(8.0)

#: Average fidelity of the best measure-and-prepare strategy on the equator.
SEMICLASSICAL_FIDELITY = 0.750

#: Bloch phases of the four equatorial training states (X and Y eigenstates).
TRAINING_PHASES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)

#: Post-selection probabilities below this are treated as zero support.
ZERO_SUPPORT_TOL = 1e-12

_EQUATOR_THETA = math.pi / 4


@dataclass(frozen=True)
class QubitState:
    """Pure qubit cos(theta)|0> + sin(theta) e^{i phi}|1> (no half-angles)."""

    theta: float
    phi: float

    def ket(self) -> tuple[complex, complex]:
        """The two amplitudes as Python scalars."""
        return complex(math.cos(self.theta)), cmath.rect(math.sin(self.theta), self.phi)

    @classmethod
    def equatorial(cls, phi: float) -> "QubitState":
        """State on the Bloch equator: (|0> + e^{i phi}|1>) / sqrt(2)."""
        return cls(theta=_EQUATOR_THETA, phi=phi)


#: The device frame of the module docstring: each qubit's (|0> mode, |1> mode).
CLONE1_RAILS = (0, 1)
CLONE2_RAILS = (2, 3)
INPUT_RAILS = (1, 2)
#: The ancilla photon's injection mode (its |0> rail).
ANCILLA_MODE = 3
#: One photon on the input |0> rail and one on the ancilla mode.
INPUT_OCCUPATION = (0, 1, 0, 1)
#: The accepted occupations in logical order (clone-1 bit, clone-2 bit) = 00, 01, 10, 11.
COINCIDENCE_PATTERNS = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))


@dataclass(frozen=True)
class CloningOutcome:
    """Clone fidelities and post-selection probability for one input state."""

    f1: float
    f2: float
    p_post: float


def four_mode_spec(spec: MeshSpec | None) -> MeshSpec:
    """The given mesh (default: the six-cell core), checked to act on four modes."""
    spec = spec or MeshSpec.four_mode_core()
    if spec.mode_count != 4:
        raise ValueError(f"the dual-rail cloner needs mode_count 4, got {spec.mode_count}")
    return spec


def _measurement_rotation(psi: QubitState) -> np.ndarray:
    """The measurement stage W on a clone pair: first row <psi|, so psi maps to the |0> rail."""
    c, s = math.cos(psi.theta), math.sin(psi.theta)
    e = np.exp(1j * psi.phi)
    return np.array([[c, s / e], [-s * e, c]], dtype=complex)


class StateStack(tuple):
    """Input states carrying their kets (S, 2) and measurement rotations W (S, 2, 2), built once."""

    def __new__(cls, states):
        if isinstance(states, cls):
            return states
        stack = super().__new__(cls, states)
        stack.kets = np.array([psi.ket() for psi in stack], dtype=complex).reshape(-1, 2)
        stack.rotations = np.array([_measurement_rotation(p) for p in stack]).reshape(-1, 2, 2)
        return stack


def _coincidence_amplitudes(u: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Unnormalized accepted amplitudes A[..., s, a, b] of kets (S, 2) through unitaries (..., 4, 4).

    With v = U ket on the input rails and w = U[:, ANCILLA_MODE], one photon
    on clone-1 rail a and one on clone-2 rail b has the 2x2 permanent
    v[a] w[2 + b] + v[2 + b] w[a] as amplitude.
    """
    # Rows 0..3 of U are the clone rails (clone 1, then clone 2); add an axis for the states.
    u, kets = np.asarray(u)[..., None, :, :], np.asarray(kets)
    v = u[..., INPUT_RAILS[0]] * kets[..., 0, None] + u[..., INPUT_RAILS[1]] * kets[..., 1, None]
    w = u[..., ANCILLA_MODE]
    return v[..., :2, None] * w[..., None, 2:] + w[..., :2, None] * v[..., None, 2:]


def outcomes(patterns, shots=1) -> np.ndarray:
    """(..., 3) array of (F1, F2, P_post) from coincidence-pattern weights (..., 4).

    ``patterns`` holds the weights of the accepted patterns in logical order
    (00, 01, 10, 11), as probabilities (``shots`` 1) or as counts out of ``shots``
    trials; bit 0 means that clone's photon exits its success rail.  With total
    the sum of the four, F1 = (p00 + p01) / total and F2 = (p00 + p10) / total
    clamped to [0, 1], and P_post = total / shots clamped to 1; zero support
    (total < ZERO_SUPPORT_TOL: for counts, no coincidence) gives all zeros.
    """
    p = np.asarray(patterns)
    total = np.add.reduce(p, axis=-1)
    support = total >= ZERO_SUPPORT_TOL
    every = support.all()
    out = np.empty(total.shape + (3,))
    out[..., 0], out[..., 1], out[..., 2] = p[..., 0] + p[..., 1], p[..., 0] + p[..., 2], total
    out[..., :2] /= (total if every else np.where(support, total, 1.0))[..., None]
    if shots != 1:
        out[..., 2] /= shots
    out.clip(0.0, 1.0, out=out)
    if not every:
        out[~support] = 0.0
    return out


def clone_outcomes(
    params: np.ndarray | list[float],
    states: list[QubitState],
    spec: MeshSpec | None = None,
) -> np.ndarray:
    """Closed-form outcome of each state at phase vectors (..., n_phases), from one mesh build.

    Returns a (..., S, 3) array: (F1, F2, P_post) of each (phase vector, state)
    pair, the ``outcomes`` of its measurement-stage pattern probabilities.
    Equals ``fock.run_cloner`` to rounding, zero support (all zeros) included.
    """
    return outcomes(measurement_path_probabilities(params, states, spec))


def measurement_path_probabilities(
    params: np.ndarray | list[float],
    states: list[QubitState],
    spec: MeshSpec | None = None,
) -> np.ndarray:
    """Coincidence-pattern probabilities with the measurement stage applied.

    One mesh build for phase vectors (..., n_phases); the (..., S, 4) result
    holds state s's unnormalized p[a, b] in logical order (00, 01, 10, 11),
    where a or b = 0 means that clone's photon exits its success rail.  A row
    sums to P_post; the rest to 1 is rejected.  With W the measurement stage
    on each clone pair, a row is |(W x W) A|^2 of the kernel amplitudes.
    """
    stack = StateStack(states)
    amps = _coincidence_amplitudes(build_mesh(four_mode_spec(spec), params), stack.kets)
    w = stack.rotations
    p = np.abs(w @ amps @ w.transpose(0, 2, 1))
    return np.square(p, out=p).reshape(*amps.shape[:-2], 4)


def measurement_path_outcome(
    params: np.ndarray | list[float],
    psi: QubitState,
    spec: MeshSpec | None = None,
) -> CloningOutcome:
    """Noiseless outcome computed through the measurement stage.

    F_i is the conditional probability that the pair-i photon exits the
    success rail given a coincidence; equals the density-matrix path.
    """
    p = measurement_path_probabilities(params, [psi], spec)[0]
    return CloningOutcome(*outcomes(p).tolist())


def __getattr__(name: str):
    """The oracle names perfbench/spans.py patches here, from ``vclone.fock`` on first access."""
    if name not in ("run_cloner", "evolve", "postselect", "fidelity"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import fock
    return getattr(fock, name)
