"""The trimmed kernel, sampler and cost against their untrimmed forms, bit for bit.

``kernel_reference`` keeps the mesh build that tiles an identity and runs
every cell through ``einsum``, the stacking ``outcomes``, the mask-based
``sample_counts`` and the Python row loop of the cloning cost.  Production must
give the same bits: probabilities, outcomes and costs compared as ``uint64``
views, counts exactly, and every generator in the same state afterwards.  The
mesh itself is compared by value only: a cell placed straight into the identity
can leave a zero of U with the other sign than the product gave it (on the mesh
(1, 2), (2, 3) at phases 0, pi, 0, 0 the imaginary part of U[1, 1] is -0.0,
where the product gives +0.0), which no probability shows.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_reference as reference
from vclone.cloner import QubitState, measurement_path_probabilities, outcomes
from vclone.mesh import MeshSpec, build_mesh
from vclone.optimizer import Task, pc_task
from vclone.sampler import sample_counts

SPECS = (
    MeshSpec.four_mode_core(),
    # The custom mesh of test_mesh.py: it starts on (1, 2) and ends in two fixed couplers.
    MeshSpec(mode_count=4, cell_pairs=((1, 2), (0, 1), (2, 3), (1, 2)), fixed_couplers=((0, 1), (2, 3))),
    # Mode 0 untouched; mode 3 first met by a cell whose other mode is already mixed.
    MeshSpec(mode_count=4, cell_pairs=((1, 2), (2, 3))),
)
#: Exact zeros of both signs, the wrap points, and a negative phase that wraps to 2*pi itself.
SPECIAL_PHASES = (0.0, -0.0, math.pi, 2 * math.pi, -2 * math.pi, -1e-17, 30.0, -30.0)

_phase = st.one_of(st.floats(-30.0, 30.0), st.sampled_from(SPECIAL_PHASES))
_angle = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(SPECIAL_PHASES))
_states = st.lists(st.builds(QubitState, _angle, _angle), min_size=1, max_size=5)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernel_bits_equal_reference(data):
    spec = data.draw(st.sampled_from(SPECS))
    rows = data.draw(st.integers(0, 13))  # 0: one phase vector, without a stack axis
    shape = (rows, spec.n_phases) if rows else (spec.n_phases,)
    size = math.prod(shape)
    params = np.array(data.draw(st.lists(_phase, min_size=size, max_size=size))).reshape(shape)
    states = data.draw(_states)

    want = reference.measurement_path_probabilities(params, states, spec)
    got = measurement_path_probabilities(params, states, spec)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(outcomes(got)), _bits(reference.outcomes(want)))
    assert np.array_equal(build_mesh(spec, params), reference.build_mesh(spec, params))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_counts_bits_equal_reference(data):
    rows = data.draw(st.integers(1, 13))
    states = data.draw(st.integers(1, 4))
    owners = np.array(data.draw(st.lists(st.integers(0, 3), min_size=rows, max_size=rows)))  # interleaved
    shots = data.draw(st.sampled_from([1, 3, 50, 5000]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    probs = np.random.default_rng(seed).dirichlet(np.ones(5), size=(rows, states))[..., :4]
    silent = np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    probs[silent] = 0.0  # rows that can see no coincidence
    ours, theirs = ({r: np.random.default_rng(seed + r) for r in range(4)} for _ in range(2))

    got = sample_counts(probs, shots, ours, owners)
    want = reference.sample_counts(probs, shots, theirs, owners)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert all(ours[r].random() == theirs[r].random() for r in range(4))
    assert np.array_equal(_bits(outcomes(got, shots)), _bits(reference.outcomes(want, shots)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cost_bits_equal_reference(data):
    # The array cost (np.float_power, summed state by state) against the row loop in
    # Python floats, whose ** is libm's pow.  x * x would change about 6 costs in 10^4,
    # too few for these draws to catch each time; the 20,000 rows of
    # test_optimizer.py::test_task_costs_round_as_python_floats catch it every time.
    inputs = data.draw(st.sampled_from([pc_task().inputs, {"A": QubitState(0.4, 0.0), "B": QubitState(1.2, 0.0)}]))
    lam = data.draw(st.sampled_from([None, 1, 0.37]))
    rows = data.draw(st.integers(1, 20))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):  # the kernel's outcomes at random phases
        task, points = Task(inputs, lam), rng.uniform(-30.0, 30.0, (rows, 12))
    else:  # random outcomes, with exact 0 and 1 values, zero-support states and all-zero rows
        outs = rng.random((rows, len(inputs), 3))
        mark = rng.random(outs.shape)
        outs[mark < 0.1], outs[mark > 0.9] = 0.0, 1.0
        outs[rng.random((rows, len(inputs))) < 0.1] = 0.0
        outs[np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))] = 0.0
        task = Task(inputs, lam, evaluator=lambda params, states, restarts: outs)
        points = np.zeros((rows, 12))

    costs, outs = task.costs(points, [0] * rows)
    want = reference.cloning_costs(outs, lam)
    assert costs.dtype == want.dtype and costs.shape == want.shape == (rows,)
    assert np.array_equal(_bits(costs), _bits(want))
