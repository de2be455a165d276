"""Tests for linearization, MSE, step responses and model comparison."""

import numpy as np
import pytest
from oracles import msd_rhs

from nikoopman import analysis, dynamics, identify, lifting, nicore
from nikoopman.analysis import CandidateModel
from nikoopman.dynamics import InputSignal, MsdParams
from nikoopman.nicore import ContinuousLinearModel, PpfController


# ---------------------------------------------------------------------------
# linearize_msd
# ---------------------------------------------------------------------------


def test_linearize_at_origin():
    c = analysis.linearize_msd(MsdParams(), [0.0, 0.0])
    assert np.allclose(c.A, [[0.0, 1.0], [-1.0, 0.0]])  # beta(0,0) = 0: undamped
    assert np.allclose(c.B, [[0.0], [1.0]])
    assert np.allclose(c.C, [[1.0, 0.0]])


def test_linearize_off_origin():
    # hand Jacobian at (0.5, 0.5) with k1 = k3 = b1 = b2 = 1, b0 = 0:
    # A21 = -(1 + 3*0.25) - 2*0.5*0.5 = -2.25, A22 = -(0.25 + 0.25) - 2*0.25 = -1.0
    # (verified against the finite-difference oracle below)
    c = analysis.linearize_msd(MsdParams(), [0.5, 0.5])
    assert c.A[1, 0] == pytest.approx(-2.25)
    assert c.A[1, 1] == pytest.approx(-1.0)


def test_linearize_linear_plant_independent_of_x0():
    p = MsdParams(k3=0.0, b0=1.0, b1=0.0, b2=0.0)
    a = analysis.linearize_msd(p, [0.0, 0.0])
    b = analysis.linearize_msd(p, [0.7, -0.3])
    assert np.allclose(a.A, b.A)


def test_linearize_matches_finite_differences():
    params = MsdParams(m=1.3, k1=0.8, k3=1.7, b0=0.2, b1=0.6, b2=1.1)
    rng = np.random.default_rng(12)
    eps = 1e-6
    for _ in range(10):
        x0 = rng.uniform(-1.0, 1.0, size=2)
        c = analysis.linearize_msd(params, x0)
        jac = np.zeros((2, 2))
        for j in range(2):
            dx = np.zeros(2)
            dx[j] = eps
            f_plus = msd_rhs(params, x0 + dx, np.zeros(1))
            f_minus = msd_rhs(params, x0 - dx, np.zeros(1))
            jac[:, j] = (f_plus - f_minus) / (2 * eps)
        assert np.allclose(c.A, jac, atol=1e-6)


# ---------------------------------------------------------------------------
# mse
# ---------------------------------------------------------------------------


def test_mse_identical_is_zero():
    x = np.random.default_rng(0).normal(size=(50, 2))
    assert np.all(analysis.mse(x, x) == 0.0)


def test_mse_constant_offset():
    x = np.zeros((200, 1))
    assert analysis.mse(x, x + 0.1)[0] == pytest.approx(0.01)


def test_mse_length_mismatch():
    with pytest.raises(analysis.LengthMismatchError):
        analysis.mse(np.zeros((5, 1)), np.zeros((6, 1)))


def test_mse_nonnegative_zero_iff_identical():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = rng.normal(size=(30, 2))
        b = a.copy()
        b[rng.integers(0, 30), rng.integers(0, 2)] += 1e-9
        out = analysis.mse(a, b)
        assert np.all(out >= 0.0)
        assert np.any(out > 0.0)
        assert np.all(analysis.mse(a, a) == 0.0)


# ---------------------------------------------------------------------------
# step_response
# ---------------------------------------------------------------------------


def test_step_response_static_gain():
    c = ContinuousLinearModel(
        A=np.zeros((0, 0)), B=np.zeros((0, 1)), C=np.zeros((1, 0)), D=[[2.0]]
    )
    resp = analysis.step_response(c, 0.1, 20)
    assert np.allclose(resp.outputs, 2.0)
    assert not resp.diverged


def test_step_response_first_order_lag():
    # the NI-preserving bilinear map trades transfer-function equality for
    # exact LMI transport: its discrete image of the unit lag settles at the
    # image's own DC gain C_d (I - A_d)^-1 B_d + D_d (= 2 as T -> 0), not at
    # the continuous DC gain
    c = ContinuousLinearModel(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
    T = 0.01
    d = nicore.to_discrete(c, T)
    settle = float((d.C @ np.linalg.solve(np.eye(1) - d.A, d.B) + d.D)[0, 0])
    resp = analysis.step_response(c, T, 2000)
    assert abs(resp.outputs[-1, 0] - settle) <= 1e-3
    assert settle == pytest.approx(2.0, abs=0.02)
    assert not resp.diverged


def test_step_response_divergence_flag():
    c = ContinuousLinearModel(A=[[2.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
    resp = analysis.step_response(c, 0.1, 1000)
    assert resp.diverged
    assert resp.outputs.shape[0] <= 1001


def test_step_response_bounded_by_dc_gain():
    # stable second-order lags stay within 10x their DC gain
    for k1, b0 in [(1.0, 0.5), (4.0, 1.0), (0.5, 2.0)]:
        c = ContinuousLinearModel(
            A=[[0.0, 1.0], [-k1, -b0]], B=[[0.0], [1.0]], C=[[1.0, 0.0]], D=[[0.0]]
        )
        resp = analysis.step_response(c, 0.01, 3000)
        dc = abs(nicore.dc_gain(c)[0, 0])
        assert np.max(np.abs(resp.outputs)) <= 10.0 * dc


# ---------------------------------------------------------------------------
# compare_models
# ---------------------------------------------------------------------------


def linear_traj(seed=0, L=300):
    p = MsdParams(k3=0.0, b0=1.0, b1=0.0, b2=0.0)
    return p, dynamics.simulate(
        p, [0.0, 0.0],
        InputSignal(kind="random", amplitude=1.0, hold=10, seed=seed), T=0.01, L=L,
    )


def test_compare_exact_model_zero_mse():
    params, traj = linear_traj()
    lin = analysis.linearize_msd(params, [0.0, 0.0])
    report = analysis.compare_models(
        traj, [CandidateModel(name="exact", continuous=lin)], ctrl=PpfController()
    )
    entry = report.models[0]
    assert entry.error is None
    # exact ZOH simulation of the true linear plant reproduces RK4 to ~1e-9
    assert np.all(entry.mse_states <= 1e-12)
    assert entry.closed_loop.verdict == "stable"
    assert entry.phase.is_ni


def test_compare_empty_list():
    _, traj = linear_traj()
    report = analysis.compare_models(traj, [])
    assert report.models == ()


def test_compare_isolates_model_failures():
    params, traj = linear_traj()
    lin = analysis.linearize_msd(params, [0.0, 0.0])
    bad = CandidateModel(
        name="bad",
        discrete=nicore.DiscreteLinearModel(
            A=-np.eye(2), B=np.zeros((2, 1)), C=np.zeros((1, 2)), D=np.zeros((1, 1)),
            T=0.01, dictionary=lifting.LiftingDictionary(n=2, centers=np.zeros((0, 2))),
        ),
    )  # eigenvalue at -1 breaks the bilinear transform
    report = analysis.compare_models(
        traj, [bad, CandidateModel(name="good", continuous=lin)]
    )
    assert report.models[0].error is not None
    assert report.models[1].error is None


def test_compare_raises_pole_on_grid():
    # the origin linearization has poles at +/- j: the grid, not the model,
    # is at fault, so the error propagates instead of filling an entry
    lin0 = analysis.linearize_msd(MsdParams(), [0.0, 0.0])
    _, traj = linear_traj()
    with pytest.raises(nicore.PoleOnGridError):
        analysis.compare_models(
            traj, [CandidateModel(name="lin0", continuous=lin0)], omegas=[0.5, 1.0, 2.0]
        )


def test_compare_report_json_serializable():
    import json

    params, traj = linear_traj()
    lin = analysis.linearize_msd(params, [0.0, 0.0])
    bad = CandidateModel(name="bad", continuous=nicore.ContinuousLinearModel(
        A=np.zeros((2, 2)), B=np.ones((2, 1)), C=np.ones((1, 2)), D=np.zeros((1, 1))))
    report = analysis.compare_models(
        traj,
        [CandidateModel(name="lin", continuous=lin), bad],
        ctrl=PpfController(),
        provenance={"seed": 0, "ppf": None},
    )
    payload = json.loads(json.dumps(report.to_json_dict(), sort_keys=True))
    # None fields and the repr=False ones (loop, response, predicted states)
    # are not saved; a None inside the provenance dict is
    assert payload["provenance"] == {"seed": 0, "ppf": None}
    good, failed = payload["models"]
    assert set(good) == {"name", "mse_states", "mse_outputs", "phase", "dc_gain",
                         "closed_loop"}
    assert set(good["closed_loop"]) == {"dc_gain_lambda_max", "spectral_radius", "verdict"}
    assert good["mse_states"] == report.models[0].mse_states.tolist()
    assert set(failed) == {"name", "error"}


def test_compare_lifted_model_with_certificate():
    params, traj = linear_traj(seed=3, L=400)
    dic = lifting.LiftingDictionary(n=2, centers=np.zeros((0, 2)))
    res = identify.identify_ni(traj, dic, alpha=1e-5, strict_b=True, max_iters=100000)
    entry = CandidateModel(name="ni", discrete=res.model, P=res.ni.P)
    report = analysis.compare_models(traj, [entry], ctrl=PpfController())
    rep = report.models[0]
    assert rep.error is None
    assert rep.lmi is not None and rep.lmi.certified
    assert rep.phase.is_ni
    assert rep.closed_loop.verdict == "stable"
    assert np.all(rep.mse_states <= 1e-4)
