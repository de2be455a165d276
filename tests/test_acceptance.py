"""Acceptance suite.

One test per acceptance criterion; each prints a PASS line when its
assertions hold.  Run with ``pytest tests/test_acceptance.py -v -s``.

Benchmark scenario (fixed seeds throughout): unit-mass oscillator with cubic
spring z + z^3 and damping z^2 + zdot^2, driven by uniform random steps of
amplitude 1 held 25 samples (seed 0), T = 0.01 s, L = 1000; lifting = state
plus 6 thin-plate RBFs (center seed 0); NI fit at alpha = 1e-5 in strict
mode (input matrix from the NI equality with the data-fitted certificate).
Validation uses a fresh input (seed 1000, amplitude 1.8, hold 100) that
drives |x1| toward 1.
"""

import json
import time

import numpy as np
import pytest

from oracles import msd_rhs, scalar_ni_grid_minimum

from nikoopman import analysis, cli, dynamics, identify, lifting, matcore, nicore
from nikoopman.dynamics import InputSignal, MsdParams

T_SAMPLE = 0.01
L_STEPS = 1000
DATA_SEED = 0
CENTER_SEED = 0
VAL_SEED = 1000
ALPHA = 1e-5


@pytest.fixture(scope="module")
def scenario():
    """Benchmark identification: constrained + unconstrained + baselines."""
    params = MsdParams()
    train = dynamics.simulate(
        params, [0.0, 0.0],
        InputSignal(kind="random", amplitude=1.0, hold=25, seed=DATA_SEED),
        T=T_SAMPLE, L=L_STEPS,
    )
    val = dynamics.simulate(
        params, [0.0, 0.0],
        InputSignal(kind="random", amplitude=1.8, hold=100, seed=VAL_SEED),
        T=T_SAMPLE, L=L_STEPS,
    )
    dictionary = lifting.make_dictionary(train, n_rbf=6, seed=CENTER_SEED)
    t0 = time.time()
    constrained = identify.identify_ni(
        train, dictionary, alpha=ALPHA, strict_b=True, max_iters=200000
    )
    fit_seconds = time.time() - t0
    unconstrained = identify.identify_unconstrained(train, dictionary)
    return {
        "params": params,
        "train": train,
        "val": val,
        "constrained": constrained,
        "unconstrained": unconstrained,
        "fit_seconds": fit_seconds,
    }


def test_criterion_1_ni_certificate(scenario):
    res = scenario["constrained"]
    ni = res.ni
    lmi_min = ni.lmi_min_eig
    lyap = float(matcore.sym_eig(res.model.A @ ni.P @ res.model.A.T - ni.P).eigenvalues[0])
    assert lmi_min >= -1e-8
    assert lyap <= 1e-6
    cont = nicore.to_continuous(res.model)
    G = nicore.freq_response(cont, nicore.default_frequency_grid())[:, 0, 0]
    phases = np.degrees(np.angle(G))
    assert np.all(phases < 0.0) and np.all(phases > -180.0)
    assert scenario["fit_seconds"] <= 60.0
    print(
        f"\nACCEPTANCE 1 PASS: lmi_min={lmi_min:.2e} >= -1e-8, "
        f"lyap_max={lyap:.2e} <= 1e-6, phase in ({phases.min():.1f}, {phases.max():.1f}) deg, "
        f"fit {scenario['fit_seconds']:.1f}s <= 60s"
    )


def test_criterion_2_accuracy_ordering(scenario):
    val = scenario["val"]
    assert np.abs(val.states[:, 0]).max() >= 0.8  # |x1| driven toward ~1
    sim_c = identify.simulate_lifted(scenario["constrained"].model, val.states[0], val.inputs)
    sim_u = identify.simulate_lifted(scenario["unconstrained"].model, val.states[0], val.inputs)
    mse_c = analysis.mse(val.states, sim_c.states)
    mse_u = analysis.mse(val.states, sim_u.states)
    lin0 = analysis.linearize_msd(scenario["params"], [0.0, 0.0])
    lin5 = analysis.linearize_msd(scenario["params"], [0.5, 0.5])
    mse_l0 = analysis.mse(
        val.states, analysis.simulate_continuous(lin0, val.states[0], val.inputs, val.T)
    )
    mse_l5 = analysis.mse(
        val.states, analysis.simulate_continuous(lin5, val.states[0], val.inputs, val.T)
    )
    assert np.all(mse_c <= 5.0 * mse_u)
    assert np.all(mse_c < mse_l0)
    assert np.all(mse_c < mse_l5)
    assert np.all(mse_c >= 1e-4) and np.all(mse_c <= 1e-1)
    print(
        f"\nACCEPTANCE 2 PASS: mse_c={np.array2string(mse_c, precision=4)} "
        f"vs unconstrained {np.array2string(mse_u, precision=4)} "
        f"(ratios {np.array2string(mse_c / mse_u, precision=2)} <= 5), "
        f"lin0 {np.array2string(mse_l0, precision=4)}, lin5 {np.array2string(mse_l5, precision=4)}, "
        f"band [1e-4, 1e-1]"
    )


def test_criterion_3_closed_loop(scenario):
    ctrl = nicore.PpfController(K=0.5, zeta=0.7, omega=2.0)
    cont = nicore.to_continuous(scenario["constrained"].model)
    verdict = analysis.closed_loop_verdict(cont, ctrl, T_SAMPLE)
    assert verdict.dc_gain_lambda_max < 1.0
    assert verdict.spectral_radius < 1.0
    cont_u = nicore.to_continuous(scenario["unconstrained"].model)
    verdict_u = analysis.closed_loop_verdict(cont_u, ctrl, T_SAMPLE)
    print(
        f"\nACCEPTANCE 3 PASS: constrained loop dc={verdict.dc_gain_lambda_max:.3f} < 1, "
        f"radius={verdict.spectral_radius:.6f} < 1 ({verdict.verdict}); "
        f"unconstrained verdict (reported, not asserted): {verdict_u.verdict} "
        f"radius={verdict_u.spectral_radius:.6f}"
    )


@pytest.mark.parametrize("g", [-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])
def test_criterion_4_scalar_oracle(g):
    boundary = abs(abs(g) - 1.0) < 1e-12  # infimum chased along p -> inf
    tol = 1e-8 if boundary else 1e-7
    sol = identify.solve_ni(
        [[g]], alpha=1.0, max_iters=600000 if boundary else 20000, tol=tol
    )
    oracle_val, _, _ = scalar_ni_grid_minimum(g, alpha=1.0)
    gap = abs(sol.objective - oracle_val)
    assert gap <= 1e-3
    if sol.converged:
        scale = max(1.0, float(np.linalg.norm(sol.P)) * 3.0)
        assert sol.primal_res <= tol * scale
        assert sol.dual_res <= tol * scale
    radius = float(np.max(np.abs(np.linalg.eigvals(sol.A_d))))
    assert radius <= 1.0 + 1e-3
    print(
        f"\nACCEPTANCE 4 PASS (g={g:+.1f}): |objective - oracle| = {gap:.2e} <= 1e-3, "
        f"rho(A_d)={radius:.4f} <= 1+1e-3, converged={sol.converged}"
    )


def test_criterion_5_oracle_suites():
    rng = np.random.default_rng(99)

    # EDMD vs normal-equations pseudoinverse
    theta = rng.normal(size=(4, 60))
    omega = rng.normal(size=(1, 60))
    theta_plus = rng.normal(size=(4, 60))
    dm = lifting.DataMatrices(Theta=theta, ThetaPlus=theta_plus, Omega=omega,
                              Y=theta[:1].copy())
    sol = identify.edmd_fit(dm)
    Z = np.vstack([theta, omega])
    direct = theta_plus @ Z.T @ np.linalg.pinv(Z @ Z.T)
    assert np.linalg.norm(np.hstack([sol.G_A, sol.G_B]) - direct) <= 1e-9

    # bilinear round trip
    d = nicore.DiscreteLinearModel(
        A=0.3 * rng.normal(size=(4, 4)), B=rng.normal(size=(4, 1)),
        C=rng.normal(size=(1, 4)), D=np.zeros((1, 1)), T=0.05,
    )
    back = nicore.to_discrete(nicore.to_continuous(d), d.T)
    assert np.linalg.norm(back.A - d.A) <= 1e-10 * max(1.0, np.linalg.norm(d.A))

    # PSD projection vs brute-force blends
    for _ in range(5):
        a = rng.normal(size=(2, 2))
        a = 0.5 * (a + a.T)
        p = matcore.psd_project(a)
        d_star = np.linalg.norm(a - p)
        best = np.inf
        for _ in range(40):
            gmat = rng.normal(size=(2, 2))
            y = gmat @ gmat.T
            for t in np.linspace(0.0, 1.0, 101):
                best = min(best, np.linalg.norm(a - ((1 - t) * p + t * y)))
        assert best >= d_star - 1e-6

    # Penrose identities
    a = rng.normal(size=(3, 6))
    api = matcore.pinv(a)
    for lhs, rhs in [(a @ api @ a, a), (api @ a @ api, api)]:
        assert np.linalg.norm(lhs - rhs) <= 1e-8
    assert np.linalg.norm((a @ api).T - a @ api) <= 1e-8
    assert np.linalg.norm((api @ a).T - api @ a) <= 1e-8

    # Jacobian linearization vs central finite differences
    params = MsdParams(m=1.1, k1=0.9, k3=1.3, b0=0.1, b1=0.8, b2=0.7)
    eps = 1e-6
    for _ in range(10):
        x0 = rng.uniform(-1, 1, size=2)
        c = analysis.linearize_msd(params, x0)
        jac = np.zeros((2, 2))
        for j in range(2):
            dx = np.zeros(2)
            dx[j] = eps
            f_plus = msd_rhs(params, x0 + dx, np.zeros(1))
            f_minus = msd_rhs(params, x0 - dx, np.zeros(1))
            jac[:, j] = (f_plus - f_minus) / (2 * eps)
        assert np.allclose(c.A, jac, atol=1e-6)

    # dissipation inequality along 20 random seeded trajectories
    params = MsdParams()
    for seed in range(20):
        traj = dynamics.simulate(
            params, [0.0, 0.0],
            InputSignal(kind="random", amplitude=1.0, hold=20, seed=seed),
            T=T_SAMPLE, L=500,
        )
        assert dynamics.check_dissipation(traj, params).ok

    print(
        "\nACCEPTANCE 5 PASS: EDMD pinv oracle 1e-9, bilinear round trip 1e-10, "
        "PSD blend oracle 1e-6, Penrose 1e-8, Jacobian FD 1e-6, dissipation 20 seeds"
    )


def test_criterion_6_exact_recovery():
    t0 = time.time()
    params = MsdParams(m=1.0, k1=1.0, k3=0.0, b0=1.0, b1=0.0, b2=0.0)
    traj = dynamics.simulate(
        params, [0.0, 0.0],
        InputSignal(kind="random", amplitude=1.0, hold=10, seed=2), T=T_SAMPLE, L=400,
    )
    dictionary = lifting.LiftingDictionary(n=2, centers=np.zeros((0, 2)))
    res = identify.identify_ni(
        traj, dictionary, alpha=ALPHA, strict_b=True, max_iters=100000
    )
    import scipy.linalg

    aug = np.zeros((3, 3))
    aug[:2, :2] = [[0.0, 1.0], [-1.0, -1.0]]
    aug[0, 2], aug[1, 2] = 0.0, 1.0
    Ad_exact = scipy.linalg.expm(T_SAMPLE * aug)[:2, :2]
    err = np.linalg.norm(res.model.A - Ad_exact)
    assert err <= 1e-3
    resid = nicore.discrete_ni_residuals(res.model, res.ni.P)
    assert resid.certified
    chk = nicore.ni_frequency_check(nicore.to_continuous(res.model))
    assert chk.is_ni
    elapsed = time.time() - t0
    assert elapsed <= 10.0
    print(
        f"\nACCEPTANCE 6 PASS: ||A_d - exact|| = {err:.2e} <= 1e-3, certificate and "
        f"phase checks pass, {elapsed:.1f}s <= 10s"
    )


def test_criterion_7_pipeline_determinism(tmp_path):
    traj = tmp_path / "traj.csv"
    model = tmp_path / "model.json"
    out_dir = tmp_path / "val"

    def pipeline():
        assert cli.main(["simulate", "--steps", "400", "--hold", "25", "--seed", "0",
                         "--out", str(traj)]) == 0
        assert cli.main(["identify", "--traj", str(traj), "--nrbf", "4",
                         "--center-seed", "0", "--alpha", "1e-5", "--strict-b",
                         "--max-iters", "80000", "--out", str(model)]) in (0, 4)
        assert cli.main(["validate", "--models", str(model), "--traj", str(traj),
                         "--ppf", "0.5,0.7,2", "--out-dir", str(out_dir)]) == 0
        files = [traj, model] + [
            out_dir / n
            for n in ["report.json", "bode.csv", "nyquist.csv", "step.csv", "timeseries.csv"]
        ]
        return {str(f): f.read_bytes() for f in files}

    first = pipeline()
    second = pipeline()
    assert first == second
    report = json.loads(first[str(out_dir / "report.json")].decode())
    assert report["models"][0]["name"] == "model"
    print(
        "\nACCEPTANCE 7 PASS: simulate -> identify -> validate byte-identical "
        f"across runs ({len(first)} files)"
    )
