"""Tests for the thin-plate lifting dictionary and data matrices."""

import numpy as np
import pytest
from oracles import lift_per_state

from nikoopman import dynamics, lifting
from nikoopman.dynamics import InputSignal, MsdParams
from nikoopman.lifting import LiftingDictionary


def test_sample_centers_empty():
    d = lifting.sample_centers(2, 0, [[-1, 1], [-1, 1]], seed=0)
    assert d.n_rbf == 0 and d.size == 2
    assert np.allclose(d.lift([0.3, -0.4]), [0.3, -0.4])


def test_sample_centers_deterministic():
    box = np.array([[-1.0, 1.0], [0.5, 2.0]])
    a = lifting.sample_centers(2, 6, box, seed=5)
    b = lifting.sample_centers(2, 6, box, seed=5)
    assert np.array_equal(a.centers, b.centers)
    # the one batched draw gives the centers of six draws of one center each,
    # which every saved model's dictionary was drawn with
    rng = np.random.default_rng(5)
    sequential = [rng.uniform(box[:, 0], box[:, 1]) for _ in range(6)]
    assert np.array_equal(a.centers, sequential)


def test_sample_centers_coincident_rejected():
    with pytest.raises(ValueError, match="pairwise distinct"):
        lifting.sample_centers(2, 2, [[0.5, 0.5], [-1, -1]], seed=0)


def test_sample_centers_in_box_and_distinct():
    d = lifting.sample_centers(2, 6, [[-1, 1], [-1, 1]], seed=9)
    assert d.centers.shape == (6, 2)
    assert np.all(d.centers >= -1.0) and np.all(d.centers <= 1.0)
    for i in range(6):
        for j in range(i + 1, 6):
            assert np.linalg.norm(d.centers[i] - d.centers[j]) >= 1e-9


def test_lift_zero_at_center():
    d = LiftingDictionary(n=2, centers=np.array([[0.5, -0.5]]))
    psi = d.lift([0.5, -0.5])
    assert psi[2] == 0.0


def test_lift_euler_distance():
    # n = 1, center 0, x = e: thin-plate value e^2 * ln e = e^2
    d = LiftingDictionary(n=1, centers=np.array([[0.0]]))
    psi = d.lift([np.e])
    assert psi[1] == pytest.approx(np.e**2, rel=1e-12)


def test_lift_unit_distance_zero():
    d = LiftingDictionary(n=1, centers=np.array([[0.0]]))
    assert d.lift([1.0])[1] == 0.0


def test_lift_identity_leading_block():
    d = lifting.sample_centers(2, 4, [[-2, 2], [-2, 2]], seed=1)
    x = np.array([0.7, -1.2])
    assert np.allclose(d.lift(x)[:2], x)


def test_lift_continuity_at_center():
    d = LiftingDictionary(n=2, centers=np.array([[0.1, 0.2]]))
    eps = 1e-6
    v = np.array([1.0, 0.0])
    val = d.lift(np.array([0.1, 0.2]) + eps * v)[2]
    assert abs(val) <= 2 * eps**2 * abs(np.log(eps))


def test_lift_rejects_wrong_length():
    d = LiftingDictionary(n=2, centers=np.zeros((0, 2)))
    with pytest.raises(lifting.DimensionMismatchError):
        d.lift([1.0, 2.0, 3.0])


def test_duplicate_centers_rejected():
    with pytest.raises(ValueError):
        LiftingDictionary(n=2, centers=np.array([[0.1, 0.1], [0.1, 0.1]]))


def test_lift_columns_matches_lift():
    # every column equals the oracle's one-state-at-a-time lift bit for bit,
    # a state on a center (d = 0) included
    rng = np.random.default_rng(0)
    for n_rbf in range(25):
        d = lifting.sample_centers(2, n_rbf, [[-1, 1], [-1, 1]], seed=n_rbf)
        states = rng.normal(size=(40, 2))
        if n_rbf:
            states[0] = d.centers[-1]
        cols = d.lift_columns(states)
        for k, x in enumerate(states):
            assert np.array_equal(cols[:, k], lift_per_state(d, x)), (n_rbf, k)
        assert np.array_equal(d.lift(states[2]), lift_per_state(d, states[2]))


@pytest.mark.parametrize("key", ["mean", "scale"])
def test_json_rejects_z_scoring(key):
    # a dictionary written with z-scoring would lift raw states wrongly
    block = {"n": 2, "centers": [[0.0, 0.0]], key: [1.0, 1.0]}
    with pytest.raises(ValueError, match=key):
        LiftingDictionary.from_json_dict(block)


def test_json_round_trip():
    d = lifting.sample_centers(2, 3, [[-1, 1], [0, 2]], seed=8)
    again = LiftingDictionary.from_json_dict(d.to_json_dict())
    assert again.n == d.n
    assert np.array_equal(again.centers, d.centers)


# ---------------------------------------------------------------------------
# data matrices
# ---------------------------------------------------------------------------


def example_traj(seed=0, L=30):
    return dynamics.simulate(
        MsdParams(),
        [0.1, 0.0],
        InputSignal(kind="random", amplitude=1.0, hold=5, seed=seed),
        T=0.01,
        L=L,
    )


def test_build_matrices_shapes():
    traj = example_traj()
    d = lifting.make_dictionary(traj, n_rbf=6, seed=2)
    dm = lifting.build_matrices(traj, d)
    assert dm.Theta.shape == (8, 30)
    assert dm.ThetaPlus.shape == (8, 30)
    assert dm.Omega.shape == (1, 30)
    assert dm.Y.shape == (1, 30)


def test_build_matrices_single_transition():
    traj = dynamics.simulate(MsdParams(), [0.3, 0.0], np.array([[0.5]]), T=0.01)
    d = LiftingDictionary(n=2, centers=np.zeros((0, 2)))
    dm = lifting.build_matrices(traj, d)
    assert dm.L == 1
    assert np.allclose(dm.Theta[:, 0], traj.states[0])
    assert np.allclose(dm.ThetaPlus[:, 0], traj.states[1])


def test_build_matrices_zero_trajectory():
    traj = dynamics.simulate(MsdParams(), [0.0, 0.0], np.zeros((5, 1)), T=0.01)
    d = LiftingDictionary(n=2, centers=np.zeros((0, 2)))
    dm = lifting.build_matrices(traj, d)
    assert np.all(dm.Theta == 0.0) and np.all(dm.ThetaPlus == 0.0)


def test_build_matrices_cross_check_lift():
    traj = example_traj(seed=4)
    d = lifting.make_dictionary(traj, n_rbf=4, seed=4)
    dm = lifting.build_matrices(traj, d)
    for k in range(traj.L):
        assert np.allclose(dm.Theta[:, k], d.lift(traj.states[k]))
        assert np.allclose(dm.ThetaPlus[:, k], d.lift(traj.states[k + 1]))
        assert np.allclose(dm.Omega[:, k], traj.inputs[k])
        assert np.allclose(dm.Y[:, k], traj.outputs[k])


def test_shift_property():
    # Theta/ThetaPlus are one-sample shifts of the same lifted sequence:
    # trimming ThetaPlus reproduces the matrices of the shifted trajectory.
    traj = example_traj(seed=5, L=20)
    d = lifting.make_dictionary(traj, n_rbf=3, seed=5)
    dm = lifting.build_matrices(traj, d)
    shifted = dynamics.TrajectoryData(
        T=traj.T,
        states=traj.states[1:],
        inputs=traj.inputs[1:],
        outputs=traj.outputs[1:],
    )
    dm_shift = lifting.build_matrices(shifted, d)
    assert np.allclose(dm.ThetaPlus[:, :-1], dm_shift.Theta)
    assert np.allclose(dm.ThetaPlus[:, 1:], dm_shift.ThetaPlus)


def test_state_box_inflation():
    states = np.array([[0.0, -1.0], [2.0, 1.0]])
    box = lifting.state_box(states)
    assert np.allclose(box[0], [-0.1, 2.1])
    assert np.allclose(box[1], [-1.1, 1.1])
