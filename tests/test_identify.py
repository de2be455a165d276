"""Tests for the least-squares fit and the NI-constrained solver."""

import json
from pathlib import Path

import numpy as np
import pytest

from oracles import completion_barrier_oracle, scalar_ni_grid_minimum

from nikoopman import dynamics, identify, lifting, matcore, nicore
from nikoopman.dynamics import InputSignal, MsdParams
from nikoopman.lifting import DataMatrices, LiftingDictionary


def linear_msd_params():
    return MsdParams(m=1.0, k1=1.0, k3=0.0, b0=1.0, b1=0.0, b2=0.0)


def identity_dict():
    return LiftingDictionary(n=2, centers=np.zeros((0, 2)))


def discrete_data(Ad, Bd, L=200, seed=0):
    """TrajectoryData generated exactly by a discrete linear recursion."""
    rng = np.random.default_rng(seed)
    n, m = Bd.shape
    u = rng.uniform(-1.0, 1.0, size=(L, m))
    x = np.zeros((L + 1, n))
    for j in range(L):
        x[j + 1] = Ad @ x[j] + Bd @ u[j]
    return dynamics.TrajectoryData(T=0.1, states=x, inputs=u, outputs=x[:, :1].copy())


# ---------------------------------------------------------------------------
# edmd_fit
# ---------------------------------------------------------------------------


def test_edmd_recovers_exact_linear_system():
    Ad = np.array([[0.9, 0.05], [-0.1, 0.85]])
    Bd = np.array([[0.0], [0.1]])
    traj = discrete_data(Ad, Bd)
    dm = lifting.build_matrices(traj, identity_dict())
    sol = identify.edmd_fit(dm)
    assert np.linalg.norm(sol.G_A - Ad) <= 1e-8
    assert np.linalg.norm(sol.G_B - Bd) <= 1e-8
    assert sol.residual_j1 <= 1e-16


def test_edmd_self_map():
    rng = np.random.default_rng(1)
    theta = rng.normal(size=(3, 20))
    dm = DataMatrices(Theta=theta, ThetaPlus=theta.copy(), Omega=np.zeros((1, 20)),
                      Y=theta[:1].copy())
    sol = identify.edmd_fit(dm)
    assert np.linalg.norm(sol.G_A - np.eye(3)) <= 1e-9
    assert sol.residual_j1 <= 1e-18


def test_edmd_single_sample_matches_pinv():
    theta = np.array([[1.0], [2.0]])
    theta_plus = np.array([[0.5], [1.5]])
    omega = np.array([[0.3]])
    dm = DataMatrices(Theta=theta, ThetaPlus=theta_plus, Omega=omega, Y=theta[:1].copy())
    with pytest.warns(UserWarning):
        sol = identify.edmd_fit(dm)
    Z = np.vstack([theta, omega])
    expected = theta_plus @ np.linalg.pinv(Z)
    assert np.allclose(np.hstack([sol.G_A, sol.G_B]), expected, atol=1e-10)


def test_edmd_degenerate_data():
    dm = DataMatrices(
        Theta=np.zeros((2, 5)), ThetaPlus=np.zeros((2, 5)),
        Omega=np.zeros((1, 5)), Y=np.zeros((1, 5)),
    )
    with pytest.raises(identify.DegenerateDataError):
        identify.edmd_fit(dm)


def test_edmd_first_order_optimality():
    traj = discrete_data(np.array([[0.8, 0.1], [0.0, 0.7]]), np.array([[0.2], [0.1]]),
                         L=60, seed=3)
    dm = lifting.build_matrices(traj, identity_dict())
    sol = identify.edmd_fit(dm)
    Z = np.vstack([dm.Theta, dm.Omega])
    G = np.hstack([sol.G_A, sol.G_B])
    base = np.linalg.norm(dm.ThetaPlus - G @ Z) ** 2
    rng = np.random.default_rng(7)
    for _ in range(20):
        delta = 1e-4 * np.sign(rng.normal(size=G.shape))
        perturbed = np.linalg.norm(dm.ThetaPlus - (G + delta) @ Z) ** 2
        assert perturbed >= base - 1e-12


# ---------------------------------------------------------------------------
# reduce_cost
# ---------------------------------------------------------------------------


def full_rank_dm(seed=0, N=3, m=1, L=40):
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=(N, L))
    omega = rng.normal(size=(m, L))
    theta_plus = rng.normal(size=(N, L))
    return DataMatrices(Theta=theta, ThetaPlus=theta_plus, Omega=omega,
                        Y=theta[:1].copy())


def test_reduce_cost_consistency():
    dm = full_rank_dm()
    sol = identify.edmd_fit(dm)
    assert identify.objective(sol.G_A, np.eye(3), sol.G_A) <= 1e-18


def test_reduce_cost_identity_p_zero_q():
    dm = full_rank_dm(seed=2)
    sol = identify.edmd_fit(dm)
    val = identify.objective(sol.G_A, np.eye(3), np.zeros((3, 3)))
    assert val == pytest.approx(np.linalg.norm(sol.G_A) ** 2, rel=1e-12)


def test_reduce_cost_matches_direct_weighted_cost():
    # oracle: evaluate the snapshot cost with the data-side weight built from
    # the pseudoinverse and the block-diagonal P extension; the reduced cost
    # is the dynamics part plus ||G_B - B||^2
    rng = np.random.default_rng(5)
    dm = full_rank_dm(seed=5, N=3, m=2, L=50)
    sol = identify.edmd_fit(dm)
    P = rng.normal(size=(3, 3))
    P = P @ P.T + np.eye(3)
    Q = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 2))
    Z = np.vstack([dm.Theta, dm.Omega])
    w_hat = Z.T @ np.linalg.pinv(Z @ Z.T) @ np.block(
        [[P, np.zeros((3, 2))], [np.zeros((2, 3)), np.eye(2)]]
    )
    direct = np.linalg.norm(dm.ThetaPlus @ w_hat - np.hstack([Q, B])) ** 2
    reduced = identify.objective(sol.G_A, P, Q) + np.linalg.norm(sol.G_B - B) ** 2
    assert reduced == pytest.approx(direct, abs=1e-9, rel=1e-9)


def test_reduce_cost_rank_deficient():
    # a zero input leaves the Omega row of [Theta; Omega] zero: the cost
    # reduction is invalid and identify_ni refuses the data
    traj = dynamics.simulate(linear_msd_params(), [1.0, 0.0], np.zeros((200, 1)), T=0.1)
    with pytest.raises(identify.RankDeficientError, match="row-rank deficient"):
        identify.identify_ni(traj, identity_dict())


# ---------------------------------------------------------------------------
# solve_ni
# ---------------------------------------------------------------------------


def test_solve_ni_feasible_unconstrained_optimum():
    # (P, Q) = (c I, 0.5 c I) is feasible for c >= 4 alpha / 3, so the
    # program attains zero objective and returns A_d = G_A
    sol = identify.solve_ni(0.5 * np.eye(3))
    assert sol.converged
    assert sol.objective <= 1e-10
    assert np.linalg.norm(sol.A_d - 0.5 * np.eye(3)) <= 1e-5
    assert sol.lmi_min_eig >= -1e-8 * (1.0 + np.linalg.norm(sol.P))


def test_solve_ni_contracts_unstable_target():
    sol = identify.solve_ni(2.0 * np.eye(3), alpha=1.0)
    assert sol.converged
    assert sol.objective > 0.1
    assert np.max(np.abs(np.linalg.eigvals(sol.A_d))) <= 1.0 + 1e-3
    assert sol.lmi_min_eig >= -1e-8 * (1.0 + np.linalg.norm(sol.P))


@pytest.mark.parametrize("g", [-2.0, 0.0, 0.5, 2.0])
def test_solve_ni_scalar_matches_grid_oracle(g):
    sol = identify.solve_ni([[g]], alpha=1.0)
    oracle_val, _, _ = scalar_ni_grid_minimum(g, alpha=1.0)
    assert sol.converged
    assert abs(sol.objective - oracle_val) <= 1e-3


def test_solve_ni_lyapunov_consequence():
    # the Schur block implies A_d P A_d' <= P - alpha I with the solver's P
    rng = np.random.default_rng(11)
    G_A = rng.normal(size=(4, 4)) * 0.4
    sol = identify.solve_ni(G_A, alpha=1e-3)
    lyap = matcore.sym_eig(sol.A_d @ sol.P @ sol.A_d.T - sol.P).eigenvalues[0]
    assert lyap <= 1e-6 * max(1.0, np.linalg.norm(sol.P))


def test_solve_ni_validation():
    with pytest.raises(ValueError, match="alpha"):
        identify.solve_ni(np.eye(2), alpha=0.0)
    with pytest.raises(ValueError, match="max_iters"):
        identify.solve_ni(np.eye(2), max_iters=0)


# ---------------------------------------------------------------------------
# certificate completion
# ---------------------------------------------------------------------------


def true_ni_completion_case():
    """(A_d, C_d, B_d, T) of a damped oscillator whose B_d comes from P = I."""
    T = 0.1
    A = np.array([[0.0, 1.0], [-1.0, -1.0]])
    B = np.array([[0.0], [1.0]])
    C = np.array([[1.0, 0.0]])
    d = nicore.to_discrete(nicore.ContinuousLinearModel(A=A, B=B, C=C, D=np.zeros((1, 1))), T)
    P_true = np.eye(2)  # continuous certificate of the damped oscillator
    eye = np.eye(2)
    b_true = -(1.0 / T) * (d.A - eye) @ P_true @ np.linalg.solve((eye + d.A).T, d.C.T)
    return d.A, d.C, b_true, T


def readme_completion_case():
    """(A_d, C_d, G_B, T, alpha) of the README strict fit on data from x0 = (0.6, 0)."""
    data = json.loads((Path(__file__).parent / "data" / "completion_x0_0.6.json").read_text())
    return (np.asarray(data["A_d"]), np.asarray(data["C_d"]), np.asarray(data["G_B"]),
            data["T"], data["alpha"])


def test_complete_certificate_fits_true_ni_model():
    # B_d generated by an NI pair (A_d, P_true) on the cone boundary: the
    # completion must fit it up to the strictness margin, with the fit error
    # vanishing proportionally as alpha shrinks
    A_d, C_d, b_true, T = true_ni_completion_case()
    rels = {}
    for alpha in (1e-4, 1e-6):
        comp = identify.complete_certificate(A_d, C_d, b_true, T, alpha)
        rels[alpha] = comp.b_fit_rel
        assert matcore.sym_eig(comp.P).eigenvalues[-1] >= alpha * 0.99
        lyap = matcore.sym_eig(A_d @ comp.P @ A_d.T - comp.P).eigenvalues[0]
        assert lyap <= -alpha * 0.99
    assert rels[1e-4] <= 5e-3
    assert rels[1e-6] <= max(rels[1e-4] / 20.0, 2e-5)


def test_complete_certificate_strictly_feasible_on_readme_data():
    # on this input a first-order completion stopped at its iteration cap with
    # the Schur block at lambda_min -1.2e-6; the barrier iterate is interior
    A_d, C_d, G_B, T, alpha = readme_completion_case()
    comp = identify.complete_certificate(A_d, C_d, G_B, T, alpha)
    assert comp.converged
    P, eye = comp.P, np.eye(A_d.shape[0])
    Q = A_d @ P
    block = np.block([[P - alpha * eye, Q], [Q.T, P]])
    assert np.linalg.eigvalsh(block)[0] >= -1e-8  # the LMI bound of the benchmark checks
    assert np.linalg.eigvalsh(P - alpha * eye)[0] > 0.0
    assert np.linalg.eigvalsh(P - A_d @ P @ A_d.T - alpha * eye)[0] > 0.0


@pytest.mark.parametrize("case", ["readme", "true_ni"])
def test_complete_certificate_matches_oracle(case):
    # P is not unique (the B_d map has a null space); B_d and the fit error are
    if case == "readme":
        args = readme_completion_case()
    else:
        args = (*true_ni_completion_case(), 1e-4)
    comp = identify.complete_certificate(*args)
    B_oracle, rel_oracle = completion_barrier_oracle(*args)
    assert abs(comp.b_fit_rel - rel_oracle) <= 1e-3 * rel_oracle
    assert np.linalg.norm(comp.B_d - B_oracle) <= 1e-3 * np.linalg.norm(B_oracle)


def test_complete_certificate_bound_inactive_on_readme_data():
    comp = identify.complete_certificate(*readme_completion_case())
    assert comp.converged
    assert not comp.bound_active


def test_complete_certificate_reports_active_trace_bound():
    # a random stable 5-state system: the NI equality cannot explain this G_B
    # and the fit keeps improving as tr P grows, so the solve ends on the trace
    # bound; the oracle, whose bound is larger here, fits better
    rng = np.random.default_rng(10)
    A_d = rng.standard_normal((5, 5))
    A_d *= rng.uniform(0.5, 0.98) / np.max(np.abs(np.linalg.eigvals(A_d)))
    C_d, G_B = rng.standard_normal((1, 5)), rng.standard_normal((5, 1))
    comp = identify.complete_certificate(A_d, C_d, G_B, 0.01, 1e-6)
    assert comp.converged
    assert comp.bound_active
    _, rel_oracle = completion_barrier_oracle(A_d, C_d, G_B, 0.01, 1e-6)
    assert rel_oracle < 0.5 * comp.b_fit_rel


def test_complete_certificate_rejects_unstable_dynamics():
    A_d, C_d, b_true, T = true_ni_completion_case()
    with pytest.raises(ValueError, match="Schur-stable"):
        identify.complete_certificate(1.01 * np.eye(2), C_d, b_true, T, 1e-4)


# ---------------------------------------------------------------------------
# identify_ni end to end
# ---------------------------------------------------------------------------


def test_identify_linear_ground_truth():
    # strict mode: the completed certificate makes the model NI by
    # construction, and A_d still matches the exact ZOH discretization
    params = linear_msd_params()
    traj = dynamics.simulate(
        params, [0.0, 0.0],
        dynamics.make_input(
            InputSignal(kind="random", amplitude=1.0, hold=10, seed=2), 400
        ), T=0.01,
    )
    res = identify.identify_ni(
        traj, identity_dict(), alpha=1e-5, strict_b=True, max_iters=100000
    )
    A = np.array([[0.0, 1.0], [-1.0, -1.0]])
    B = np.array([[0.0], [1.0]])
    aug = np.zeros((3, 3))
    aug[:2, :2] = A
    aug[:2, 2:] = B
    import scipy.linalg

    Ad_exact = scipy.linalg.expm(0.01 * aug)[:2, :2]
    assert np.linalg.norm(res.model.A - Ad_exact) <= 1e-3
    resid = nicore.discrete_ni_residuals(res.model, res.ni.P)
    assert resid.certified
    assert resid.b_eq_gap <= 1e-9
    chk = nicore.ni_frequency_check(nicore.to_continuous(res.model))
    assert chk.is_ni


def test_identify_zero_data_degenerate():
    traj = dynamics.simulate(MsdParams(), [0.0, 0.0], np.zeros((20, 1)), T=0.01)
    with pytest.raises(identify.DegenerateDataError):
        identify.identify_ni(traj, identity_dict())


def test_identify_unconstrained_has_no_certificate():
    traj = discrete_data(np.array([[0.9, 0.0], [0.1, 0.8]]), np.array([[0.1], [0.0]]))
    res = identify.identify_unconstrained(traj, identity_dict())
    assert res.ni is None
    assert np.allclose(res.model.A, res.edmd.G_A)


# ---------------------------------------------------------------------------
# simulate_lifted
# ---------------------------------------------------------------------------


def test_simulate_lifted_constant():
    d = identity_dict()
    mdl = nicore.DiscreteLinearModel(
        A=np.eye(2), B=np.zeros((2, 1)), C=np.array([[1.0, 0.0]]),
        D=np.zeros((1, 1)), T=0.1, dictionary=d,
    )
    sim = identify.simulate_lifted(mdl, [0.3, -0.2], np.ones((10, 1)))
    assert np.allclose(sim.outputs, 0.3)
    assert np.allclose(sim.states, [0.3, -0.2])


def test_simulate_lifted_matches_continuous_simulation():
    params = linear_msd_params()
    traj = dynamics.simulate(
        params, [0.1, 0.0],
        dynamics.make_input(
            InputSignal(kind="random", amplitude=0.5, hold=10, seed=4), 200
        ), T=0.01,
    )
    res = identify.identify_unconstrained(traj, identity_dict())
    sim = identify.simulate_lifted(res.model, traj.states[0], traj.inputs)
    assert np.max(np.abs(sim.outputs[:, 0] - traj.outputs[:, 0])) <= 1e-3


def test_simulate_lifted_requires_dictionary():
    mdl = nicore.DiscreteLinearModel(
        A=np.eye(2), B=np.zeros((2, 1)), C=np.zeros((1, 2)), D=np.zeros((1, 1)), T=0.1,
    )
    with pytest.raises(ValueError):
        identify.simulate_lifted(mdl, [0.0, 0.0], np.zeros((5, 1)))
