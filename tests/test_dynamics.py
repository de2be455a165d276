"""Tests for plant simulation, excitation signals and the dissipation check."""

import numpy as np
import pytest
import scipy.linalg

from nikoopman import dynamics
from nikoopman.dynamics import InputSignal, MsdParams, TrajectoryData


def zoh_discretize(A, B, T):
    """Exact zero-order-hold discretization via the augmented exponential."""
    n, m = B.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = A
    aug[:n, n:] = B
    phi = scipy.linalg.expm(T * aug)
    return phi[:n, :n], phi[:n, n:]


# ---------------------------------------------------------------------------
# MsdParams / storage
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        MsdParams(m=0.0)
    with pytest.raises(ValueError):
        MsdParams(b1=-0.5)


def test_storage_zero_state():
    assert dynamics.storage_value(MsdParams(), [0.0, 0.0]) == 0.0


def test_storage_spring_terms():
    # 1/2 * 1 * 0 + 1/2 * 1 + 1/4 * 1 = 0.75
    assert dynamics.storage_value(MsdParams(m=1, k1=1, k3=1), [1.0, 0.0]) == pytest.approx(0.75)


def test_storage_kinetic_only():
    assert dynamics.storage_value(MsdParams(m=2.0), [0.0, 3.0]) == pytest.approx(9.0)


# ---------------------------------------------------------------------------
# make_input
# ---------------------------------------------------------------------------


def test_make_input_zero():
    u = dynamics.make_input(InputSignal(kind="zero"), L=10)
    assert np.all(u == 0.0) and u.shape == (10, 1)


def test_make_input_deterministic():
    spec = InputSignal(kind="random", amplitude=2.0, hold=3, seed=42)
    a = dynamics.make_input(spec, L=50)
    b = dynamics.make_input(spec, L=50)
    assert np.array_equal(a, b)


def test_make_input_plateau_count():
    u = dynamics.make_input(InputSignal(kind="random", amplitude=1.0, hold=10, seed=1), L=100)
    assert len(np.unique(u)) == 10
    # each plateau is exactly 10 samples long
    changes = np.nonzero(np.diff(u[:, 0]))[0]
    assert np.all((changes + 1) % 10 == 0)


def test_make_input_prbs_levels():
    u = dynamics.make_input(InputSignal(kind="prbs", amplitude=0.5, hold=5, seed=3), L=40)
    assert set(np.unique(u)) <= {-0.5, 0.5}


def test_make_input_bad_kind():
    for kind in ("chirp", "sine"):
        with pytest.raises(ValueError, match="unknown input kind"):
            InputSignal(kind=kind)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_equilibrium_stays_zero():
    traj = dynamics.simulate(MsdParams(), [0.0, 0.0], InputSignal(kind="zero"), T=0.01, L=50)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.outputs == 0.0)


def test_simulate_linear_case_matches_exact_discretization():
    # k3 = 0, b1 = b2 = 0, b0 = 1: plain damped oscillator.
    p = MsdParams(m=1.0, k1=1.0, k3=0.0, b0=1.0, b1=0.0, b2=0.0)
    A = np.array([[0.0, 1.0], [-1.0, -1.0]])
    B = np.array([[0.0], [1.0]])
    T, L = 0.01, 100
    Ad, Bd = zoh_discretize(A, B, T)
    u = np.ones((L, 1))
    traj = dynamics.simulate(p, [0.0, 0.0], u, T=T)
    x = np.zeros(2)
    for j in range(L):
        x = Ad @ x + Bd @ u[j]
    assert np.linalg.norm(traj.states[-1] - x) <= 1e-6


def test_simulate_benchmark_parameters_bounded():
    traj = dynamics.simulate(
        MsdParams(),
        [0.0, 0.0],
        InputSignal(kind="random", amplitude=1.0, hold=25, seed=0),
        T=0.01,
        L=1000,
    )
    assert traj.L == 1000
    assert np.all(np.isfinite(traj.states))


def test_simulate_determinism():
    spec = InputSignal(kind="random", amplitude=1.0, hold=10, seed=7)
    a = dynamics.simulate(MsdParams(), [0.1, 0.0], spec, T=0.01, L=200)
    b = dynamics.simulate(MsdParams(), [0.1, 0.0], spec, T=0.01, L=200)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.inputs, b.inputs)


def test_simulate_rk4_order():
    # halve the sampling time (below MAX_STEP it is the RK4 step) on the
    # linear case; the error at t = 0.4 against the exact ZOH solution must
    # shrink at order >= 3.5
    p = MsdParams(m=1.0, k1=1.0, k3=0.0, b0=1.0, b1=0.0, b2=0.0)
    A = np.array([[0.0, 1.0], [-1.0, -1.0]])
    B = np.array([[0.0], [1.0]])
    Ad, Bd = zoh_discretize(A, B, 0.4)
    x = Bd[:, 0]  # one held unit step from rest
    errs = []
    for T in (0.01, 0.005, 0.0025):
        L = round(0.4 / T)
        traj = dynamics.simulate(p, [0.0, 0.0], np.ones((L, 1)), T=T)
        errs.append(np.linalg.norm(traj.states[-1] - x))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 3.5


# ---------------------------------------------------------------------------
# dissipation
# ---------------------------------------------------------------------------


def test_dissipation_zero_input_decay():
    traj = dynamics.simulate(MsdParams(), [1.0, 0.0], InputSignal(kind="zero"), T=0.01, L=500)
    report = dynamics.check_dissipation(traj, MsdParams())
    assert report.ok


@pytest.mark.parametrize("seed", range(20))
def test_dissipation_random_seeds(seed):
    params = MsdParams()
    traj = dynamics.simulate(
        params,
        [0.0, 0.0],
        InputSignal(kind="random", amplitude=1.0, hold=20, seed=seed),
        T=0.01,
        L=500,
    )
    assert dynamics.check_dissipation(traj, params).ok


def test_dissipation_flags_negative_damping():
    # Played backwards, a damped zero-input decay is an anti-damped plant that
    # gains energy with no supply; the storage check must expose violations.
    params = MsdParams()
    traj = dynamics.simulate(params, [1.0, 0.0], np.zeros((300, 1)), T=0.01)
    assert dynamics.check_dissipation(traj, params).ok
    reversed_traj = TrajectoryData(
        T=traj.T, states=traj.states[::-1], inputs=traj.inputs, outputs=traj.outputs[::-1]
    )
    report = dynamics.check_dissipation(reversed_traj, params)
    assert not report.ok
    assert all(gap > report.tol for _, gap in report.violations)


# ---------------------------------------------------------------------------
# TrajectoryData CSV round trip
# ---------------------------------------------------------------------------


def test_trajectory_csv_round_trip(tmp_path):
    traj = dynamics.simulate(
        MsdParams(),
        [0.2, -0.1],
        InputSignal(kind="random", amplitude=0.5, hold=5, seed=11),
        T=0.02,
        L=40,
    )
    traj.save_csv(tmp_path / "traj.csv", extra_comments=["config={}"])
    again = TrajectoryData.load_csv(tmp_path / "traj.csv")
    assert again.T == traj.T
    assert np.allclose(again.states, traj.states, atol=1e-11)
    assert np.allclose(again.inputs, traj.inputs, atol=1e-11)
    assert np.allclose(again.outputs, traj.outputs, atol=1e-11)


def _csv_lines(tmp_path, traj) -> list[str]:
    traj.save_csv(tmp_path / "traj.csv")
    return (tmp_path / "traj.csv").read_text().splitlines()


def test_trajectory_csv_layout(tmp_path):
    traj = dynamics.simulate(MsdParams(), [0.0, 0.0], np.ones((3, 1)), T=0.1)
    lines = _csv_lines(tmp_path, traj)
    assert lines[0].startswith("# T=")
    assert lines[1] == "t,x1,x2,u1,y1"
    assert len(lines) == 2 + 4
    # input column empty on the final row
    assert lines[-1].split(",")[3] == ""


def _csv_with_row(tmp_path, row: int, cells: str) -> str:
    traj = dynamics.simulate(MsdParams(), [0.0, 0.0], np.ones((4, 1)), T=0.1)
    lines = _csv_lines(tmp_path, traj)
    lines[2 + row] = cells  # after the "# T=" line and the header
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "row, cells, match",
    [
        (1, "1.0,0.0,0.0,1.0", "line 4 has 4 cells, the header 5"),
        (1, "1.0,0.0,0.0,1.0,0.0,7.0", "line 4 has 6 cells, the header 5"),
        (2, "2.0,0.0,zero,1.0,0.0", "line 5: could not convert"),
        (0, "0.0,0.0,0.0,,0.0", "line 3: could not convert"),
    ],
    ids=["short-row", "long-row", "non-numeric", "empty-input-not-final"],
)
def test_trajectory_csv_malformed_row(tmp_path, row, cells, match):
    with pytest.raises(ValueError, match=match):
        TrajectoryData.from_csv(_csv_with_row(tmp_path, row, cells))


def test_trajectory_csv_short_then_long_row(tmp_path):
    # a flat parse would take the two rows for two well-formed ones
    text = _csv_with_row(tmp_path, 1, "1.0,0.0,0.0,1.0")
    lines = text.splitlines()
    lines[4] = "2.0,0.0,0.0,1.0,0.0,9.0"
    with pytest.raises(ValueError, match="line 4 has 4 cells"):
        TrajectoryData.from_csv("\n".join(lines))


@pytest.mark.parametrize("T", ["nan", "inf"])
def test_trajectory_csv_non_finite_sampling_time(tmp_path, T):
    lines = _csv_with_row(tmp_path, 0, "0.0,0.0,0.0,1.0,0.0").splitlines()
    lines[0] = f"# T={T}"
    with pytest.raises(ValueError, match="sampling time must be positive and finite"):
        TrajectoryData.from_csv("\n".join(lines))


def test_trajectory_validation():
    with pytest.raises(ValueError):
        TrajectoryData(T=0.1, states=np.zeros((3, 2)), inputs=np.zeros((1, 1)), outputs=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        TrajectoryData(
            T=0.1,
            states=np.array([[0.0, np.inf], [0.0, 0.0]]),
            inputs=np.zeros((1, 1)),
            outputs=np.zeros((2, 1)),
        )
