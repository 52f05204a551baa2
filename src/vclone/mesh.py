"""Programmable interferometer meshes built from Mach-Zehnder cells.

A mesh is an ordered product of 2x2 unitary blocks (tunable Mach-Zehnder
cells and fixed 50:50 couplers) embedded into an m-mode identity.  The
default device is a 4-mode rectangular arrangement with 6 cells / 12
tunable phases, which together with input/output phase freedom can realize
any 4-mode unitary.

Cell convention (fixed once so that results are reproducible):

    U(theta, phi) = i * e^{i theta/2} * [[e^{i phi} sin(theta/2),  cos(theta/2)],
                                         [e^{i phi} cos(theta/2), -sin(theta/2)]]

theta is the internal phase (splitting ratio), phi the external phase on
the first mode of the pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_phases(values: np.ndarray | list[float]) -> np.ndarray:
    """Reduce phase values modulo 2*pi into [0, 2*pi)."""
    # One % takes a phase just below 0 to 2*pi itself; the second, exact on [0, 2*pi], to 0.
    return np.asarray(values, dtype=float) % TWO_PI % TWO_PI


def mzi_unitary(theta: float | np.ndarray, phi: float | np.ndarray) -> np.ndarray:
    """2x2 unitary of a Mach-Zehnder cell, shape (..., 2, 2) for arrays of phases.

    theta = 0 gives the full cross state i*[[0, 1], [1, 0]]; theta = pi the
    bar state up to phase.  Continuous and 2*pi-periodic in both angles.
    """
    h = 0.5 * wrap_phases(theta)
    g = 1j * np.exp(1j * h)
    ge = g * np.exp(1j * wrap_phases(phi))
    s, c = np.sin(h), np.cos(h)
    u = np.empty(h.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = ge * s
    u[..., 0, 1] = g * c
    u[..., 1, 0] = ge * c
    u[..., 1, 1] = -g * s
    return u


def balanced_coupler() -> np.ndarray:
    """Fixed 50:50 directional coupler (no tunable phase)."""
    return np.array([[1.0, 1j], [1j, 1.0]], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class MeshSpec:
    """Layout of a mesh: ordered cell placements plus optional fixed couplers.

    ``cell_pairs`` lists the mode pair of each tunable cell in left-to-right
    composition order (column-major over the rectangle).  Each cell consumes
    two entries of the phase vector: (theta_k, phi_k) for cell k, in order.
    ``fixed_couplers`` are 50:50 crossings applied after all cells.
    """

    mode_count: int
    cell_pairs: tuple[tuple[int, int], ...]
    fixed_couplers: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.mode_count < 2:
            raise ValueError("mode_count must be at least 2")
        for pair in tuple(self.cell_pairs) + tuple(self.fixed_couplers):
            i, j = pair
            if {type(i), type(j)} != {int} or j != i + 1 or i < 0 or j >= self.mode_count:
                raise ValueError(f"invalid mode pair {pair}")

    @property
    def n_phases(self) -> int:
        return 2 * len(self.cell_pairs)

    @classmethod
    def four_mode_core(cls) -> "MeshSpec":
        """The 4-mode variational core: 6 cells, 12 phases.

        Rectangular column layout (0,1)&(2,3) | (1,2) | (0,1)&(2,3) | (1,2);
        no two cells in one column share a mode.
        """
        return cls(
            mode_count=4,
            cell_pairs=((0, 1), (2, 3), (1, 2), (0, 1), (2, 3), (1, 2)),
        )

    @classmethod
    def from_dict(cls, data: dict) -> "MeshSpec":
        cells = data["cells"]
        for k, cell in enumerate(cells):
            if cell.get("theta_index", 2 * k) != 2 * k or cell.get("phi_index", 2 * k + 1) != 2 * k + 1:
                raise ValueError("cells must bind phase indices in placement order")
        return cls(
            mode_count=int(data["mode_count"]),
            cell_pairs=tuple(tuple(c["modes"]) for c in cells),
            fixed_couplers=tuple(tuple(p) for p in data.get("fixed_couplers", [])),
        )


def build_mesh(spec: MeshSpec, params: np.ndarray | list[float]) -> np.ndarray:
    """Mode unitary of the mesh for a phase vector, or a stack of them.

    ``params`` of shape (..., n_phases) gives unitaries (..., m, m).  Cells
    compose left to right: later cells multiply on the left, each on the two
    rows it touches; a cell (or coupler) on two modes no earlier one touched is
    placed into the identity, so a zero of U may differ in sign from a full
    product's.  Raises ValueError when the phase count does not match.
    """
    params = np.atleast_1d(np.asarray(params, dtype=float))  # mzi_unitary wraps the phases
    if params.shape[-1] != spec.n_phases:
        raise ValueError(f"expected {spec.n_phases} phases for this mesh, got {params.shape[-1]}")
    m = spec.mode_count
    u = np.zeros(params.shape[:-1] + (m, m), dtype=complex)
    u.reshape(-1, m * m)[:, :: m + 1] = 1.0
    cells = mzi_unitary(params[..., 0::2], params[..., 1::2])
    touched = set()
    # einsum adds the two products without fused multiply-adds: each row of a
    # stack equals its own build, and both equal plain complex arithmetic.
    for k, (i, j) in enumerate((*spec.cell_pairs, *spec.fixed_couplers)):
        block = cells[..., k, :, :] if k < len(spec.cell_pairs) else balanced_coupler()
        if touched.isdisjoint((i, j)):
            u[..., i : j + 1, i : j + 1] = block
        else:
            u[..., i : j + 1, :] = np.einsum("...ij,...jk->...ik", block, u[..., i : j + 1, :])
        touched.update((i, j))
    return u
