"""Tests for the bilinear transform, NI checks, PPF and feedback algebra."""

import numpy as np
import pytest

from nikoopman import analysis, matcore, nicore
from nikoopman.dynamics import MsdParams
from nikoopman.nicore import (
    ContinuousLinearModel,
    DiscreteLinearModel,
    PpfController,
)


def damped_oscillator(k1=1.0, b0=1.0, m=1.0):
    """Continuous-time m zdd + b0 zd + k1 z = u with position output."""
    return ContinuousLinearModel(
        A=np.array([[0.0, 1.0], [-k1 / m, -b0 / m]]),
        B=np.array([[0.0], [1.0 / m]]),
        C=np.array([[1.0, 0.0]]),
        D=np.zeros((1, 1)),
    )


def random_stable_discrete(rng, n, T=0.1, radius=0.8):
    a = rng.normal(size=(n, n))
    a *= radius / max(np.linalg.norm(a, "fro"), 1e-12)
    b = rng.normal(size=(n, 1))
    c = rng.normal(size=(1, n))
    return DiscreteLinearModel(A=a, B=b, C=c, D=np.zeros((1, 1)), T=T)


# ---------------------------------------------------------------------------
# bilinear transform
# ---------------------------------------------------------------------------


def test_to_continuous_scalar_zero():
    d = DiscreteLinearModel(A=[[0.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]], T=1.0)
    c = nicore.to_continuous(d)
    assert np.allclose(c.A, [[-1.0]])


def test_to_continuous_identity_is_integrator():
    d = DiscreteLinearModel(A=np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)), D=[[0.0]], T=0.5)
    c = nicore.to_continuous(d)  # I + I invertible: no error
    assert np.allclose(c.A, np.zeros((2, 2)))


def test_to_continuous_minus_one_raises():
    d = DiscreteLinearModel(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]], T=1.0)
    with pytest.raises(nicore.SingularAtMinusOneError):
        nicore.to_continuous(d)


def test_to_discrete_scalar_cases():
    c = ContinuousLinearModel(A=[[0.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
    assert np.allclose(nicore.to_discrete(c, 1.0).A, [[1.0]])
    c = ContinuousLinearModel(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
    assert np.allclose(nicore.to_discrete(c, 1.0).A, [[0.0]])


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_bilinear_round_trip(seed):
    rng = np.random.default_rng(seed)
    d = random_stable_discrete(rng, 4, T=0.05)
    c = nicore.to_continuous(d)
    back = nicore.to_discrete(c, d.T)
    scale = max(np.linalg.norm(d.A), 1.0)
    assert np.linalg.norm(back.A - d.A) <= 1e-10 * scale
    assert np.linalg.norm(back.B - d.B) <= 1e-10 * max(np.linalg.norm(d.B), 1.0)
    assert np.linalg.norm(back.C - d.C) <= 1e-10 * max(np.linalg.norm(d.C), 1.0)
    assert np.linalg.norm(back.D - d.D) <= 1e-10


def test_lmi_transport_sign_equivalence():
    # lambda_max(A_d P A_d' - P) and lambda_max(A P + P A') of the bilinear
    # image share their sign (congruence), whenever bounded away from zero.
    rng = np.random.default_rng(10)
    tested = 0
    while tested < 20:
        d = random_stable_discrete(rng, 3, T=0.2, radius=float(rng.uniform(0.5, 1.6)))
        p = rng.normal(size=(3, 3))
        p = 0.5 * (p + p.T) + 0.5 * np.eye(3)
        disc = matcore.sym_eig(d.A @ p @ d.A.T - p).eigenvalues[0]
        c = nicore.to_continuous(d)
        cont = matcore.sym_eig(c.A @ p + p @ c.A.T).eigenvalues[0]
        if min(abs(disc), abs(cont)) < 1e-2:
            continue
        assert np.sign(disc) == np.sign(cont)
        tested += 1


# ---------------------------------------------------------------------------
# discrete NI residuals
# ---------------------------------------------------------------------------


def test_residuals_contraction():
    d = DiscreteLinearModel(
        A=0.5 * np.eye(2), B=np.zeros((2, 1)), C=np.zeros((1, 2)), D=np.zeros((1, 1)), T=0.1
    )
    res = nicore.discrete_ni_residuals(d, np.eye(2))
    assert res.lyap_max_eig == pytest.approx(-0.75, abs=1e-12)
    assert res.p_min_eig == pytest.approx(1.0)
    assert res.certified


def test_residuals_isometry():
    th = 0.3
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    d = DiscreteLinearModel(
        A=rot, B=np.zeros((2, 1)), C=np.zeros((1, 2)), D=np.zeros((1, 1)), T=0.1
    )
    res = nicore.discrete_ni_residuals(d, np.eye(2))
    assert abs(res.lyap_max_eig) <= 1e-12


def test_residuals_b_equality():
    # build B_d to satisfy the equality exactly, then certify
    rng = np.random.default_rng(3)
    a = 0.5 * np.eye(3) + 0.05 * rng.normal(size=(3, 3))
    c = rng.normal(size=(1, 3))
    P = np.eye(3)
    T = 0.1
    b = -(1.0 / T) * (a - np.eye(3)) @ P @ np.linalg.solve((np.eye(3) + a).T, c.T)
    d = DiscreteLinearModel(A=a, B=b, C=c, D=np.zeros((1, 1)), T=T)
    res = nicore.discrete_ni_residuals(d, P)
    assert res.b_eq_gap <= 1e-12
    assert res.certified
    # the Lyapunov half alone does not certify: a B off the equality fails
    off = DiscreteLinearModel(A=a, B=b + 1e-3, C=c, D=np.zeros((1, 1)), T=T)
    res = nicore.discrete_ni_residuals(off, P)
    assert res.lyap_max_eig < 0 and res.p_min_eig > 0
    assert res.b_eq_gap > 1e-6 and not res.certified


# ---------------------------------------------------------------------------
# frequency response
# ---------------------------------------------------------------------------


def test_freq_response_static_model():
    c = ContinuousLinearModel(
        A=np.zeros((0, 0)), B=np.zeros((0, 1)), C=np.zeros((1, 0)), D=[[2.0]]
    )
    G = nicore.freq_response(c, [0.1, 1.0, 10.0])
    assert np.allclose(G, 2.0)


def test_freq_response_first_order_lag():
    c = ContinuousLinearModel(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
    G = nicore.freq_response(c, [1.0])[0, 0, 0]
    assert G == pytest.approx(0.5 - 0.5j, abs=1e-12)


def test_freq_response_pole_on_grid():
    c = ContinuousLinearModel(A=[[0.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
    with pytest.raises(nicore.PoleOnGridError):
        nicore.freq_response(c, [0.0])


def test_freq_response_pole_on_long_grid():
    # the origin linearization has poles at +/- j; put w = 1 deep into a
    # 2,000-point grid, far past the first block of frequencies
    lin0 = analysis.linearize_msd(MsdParams(), [0.0, 0.0])
    grid = np.sort(np.append(nicore.default_frequency_grid(1e-2, 1e2, 1999), 1.0))
    assert grid.size == 2000 and np.flatnonzero(grid == 1.0)[0] > nicore.FREQ_CHUNK
    with pytest.raises(nicore.PoleOnGridError) as exc:
        nicore.freq_response(lin0, grid)
    assert exc.value.omega == 1.0


def test_dc_gain_of_oscillator():
    c = damped_oscillator(k1=4.0)
    assert nicore.dc_gain(c)[0, 0] == pytest.approx(0.25)
    # frequency response approaches the DC gain
    G = nicore.freq_response(c, [1e-6])[0, 0, 0]
    assert abs(G - 0.25) <= 1e-5


# ---------------------------------------------------------------------------
# NI frequency check
# ---------------------------------------------------------------------------


def test_ni_check_second_order_lag_is_ni():
    # G = 1/(s^2 + s + 1): Im G = -w / ((1-w^2)^2 + w^2) <= 0 for w > 0
    c = damped_oscillator(k1=1.0, b0=1.0)
    omegas = nicore.default_frequency_grid()
    chk = nicore.ni_frequency_check(c, omegas)
    assert chk.is_ni
    G = nicore.freq_response(c, omegas)[:, 0, 0]
    analytic = -omegas / ((1 - omegas**2) ** 2 + omegas**2)
    assert np.allclose(G.imag, analytic, atol=1e-10)


def test_ni_check_differentiator_violates():
    # G(s) = a s/(s + a) ~ s for w << a has Im G > 0: phase +90 degrees
    a = 1e3
    c = ContinuousLinearModel(A=[[-a]], B=[[a]], C=[[-a]], D=[[a]])
    chk = nicore.ni_frequency_check(c)
    assert not chk.is_ni
    assert chk.min_eig_over_grid < 0


def test_ni_check_constant_boundary():
    c = ContinuousLinearModel(
        A=np.zeros((0, 0)), B=np.zeros((0, 1)), C=np.zeros((1, 0)), D=[[3.0]]
    )
    chk = nicore.ni_frequency_check(c)
    assert chk.is_ni
    assert abs(chk.min_eig_over_grid) <= 1e-14


def test_ni_check_rejects_grid_without_positive_frequency():
    c = damped_oscillator(k1=1.0, b0=1.0)
    with pytest.raises(ValueError, match="positive frequency"):
        nicore.ni_frequency_check(c, [0.0, -1.0])


def test_ni_check_requires_square():
    c = ContinuousLinearModel(
        A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.zeros((2, 2)), D=np.zeros((2, 1))
    )
    with pytest.raises(ValueError):
        nicore.ni_frequency_check(c)


# ---------------------------------------------------------------------------
# PPF controller
# ---------------------------------------------------------------------------


def test_ppf_dc_gain_unity():
    ctrl = PpfController(K=4.0, zeta=0.3, omega=2.0)  # K = omega^2
    c = nicore.ppf_realize(ctrl)
    assert nicore.dc_gain(c)[0, 0] == pytest.approx(1.0)


def test_ppf_is_strictly_ni():
    c = nicore.ppf_realize(PpfController(K=1.0, zeta=0.5, omega=1.0))
    assert nicore.dc_gain(c)[0, 0] == pytest.approx(1.0)
    chk = nicore.ni_frequency_check(c)
    assert chk.is_ni
    # strictly NI: j(G - G*) = -2 Im G strictly positive on any finite grid
    assert chk.min_eig_over_grid > 0
    G = nicore.freq_response(c, nicore.default_frequency_grid())[:, 0, 0]
    assert np.all(G.imag < 0)


def test_ppf_resonance_magnitude():
    K, zeta, omega = 2.0, 0.25, 3.0
    c = nicore.ppf_realize(PpfController(K=K, zeta=zeta, omega=omega))
    G = nicore.freq_response(c, [omega])[0, 0, 0]
    assert abs(G) == pytest.approx(K / (2 * zeta * omega**2), rel=1e-12)


def test_ppf_validation():
    with pytest.raises(ValueError):
        PpfController(K=-1.0)


# ---------------------------------------------------------------------------
# positive feedback
# ---------------------------------------------------------------------------


def test_feedback_zero_controller_is_plant():
    plant = damped_oscillator()
    zero_ctrl = ContinuousLinearModel(
        A=[[-1.0]], B=[[0.0]], C=[[0.0]], D=[[0.0]]
    )
    fb = nicore.positive_feedback(plant, zero_ctrl)
    omegas = np.array([0.1, 1.0, 10.0])
    assert np.allclose(
        nicore.freq_response(fb.model, omegas), nicore.freq_response(plant, omegas)
    )
    assert fb.dc_gain_lambda_max == pytest.approx(0.0)


def test_feedback_block_structure_strictly_proper():
    plant = damped_oscillator()
    ctrl = nicore.ppf_realize(PpfController())
    fb = nicore.positive_feedback(plant, ctrl)
    expected = np.block(
        [[plant.A, plant.B @ ctrl.C], [ctrl.B @ plant.C, ctrl.A]]
    )
    assert np.allclose(fb.model.A, expected)
    assert np.allclose(fb.model.B, np.vstack([plant.B, np.zeros((2, 1))]))
    assert np.allclose(fb.model.C, np.hstack([plant.C, np.zeros((1, 2))]))


def test_feedback_transfer_function_oracle():
    # closed SISO loop satisfies G_cl = G / (1 - G Gbar) pointwise
    plant = damped_oscillator(k1=2.0, b0=0.5)
    ctrl = nicore.ppf_realize(PpfController(K=0.8, zeta=0.6, omega=1.5))
    fb = nicore.positive_feedback(plant, ctrl)
    omegas = np.array([0.05, 0.3, 1.0, 4.0, 20.0])
    G = nicore.freq_response(plant, omegas)[:, 0, 0]
    Gb = nicore.freq_response(ctrl, omegas)[:, 0, 0]
    Gcl = nicore.freq_response(fb.model, omegas)[:, 0, 0]
    assert np.allclose(Gcl, G / (1.0 - G * Gb), rtol=1e-9, atol=1e-12)


def test_feedback_dc_product_scalar():
    plant = damped_oscillator(k1=1.0)  # DC gain 1
    half = ContinuousLinearModel(A=[[-2.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])  # DC 0.5
    fb = nicore.positive_feedback(plant, half)
    assert fb.dc_gain_lambda_max == pytest.approx(0.5)


def test_feedback_controller_feedthrough_rejected():
    # the loop is closed around strictly proper controllers only
    plant = damped_oscillator()
    ctrl = nicore.ppf_realize(PpfController())
    proper = ContinuousLinearModel(A=ctrl.A, B=ctrl.B, C=ctrl.C, D=[[0.1]])
    with pytest.raises(ValueError, match="strictly proper"):
        nicore.positive_feedback(plant, proper)


def test_ni_ppf_stability_theorem():
    # NI plant + SNI PPF + DC coupling < 1 implies internal stability;
    # verified via spectral radius of the discretized closed loop.
    plant = damped_oscillator()  # NI, DC gain 1
    ctrl = PpfController(K=0.5, zeta=0.7, omega=2.0)  # DC gain 0.125
    assert nicore.ni_frequency_check(plant).is_ni
    fb = nicore.positive_feedback(plant, nicore.ppf_realize(ctrl))
    assert fb.dc_gain_lambda_max < 1.0
    disc = nicore.to_discrete(fb.model, 0.01)
    assert np.max(np.abs(np.linalg.eigvals(disc.A))) < 1.0 - 1e-6


def test_ppf_over_unity_coupling_destabilizes():
    # same plant, coupling pushed past 1: positive feedback shifts the
    # closed-loop stiffness negative and the loop goes unstable
    plant = damped_oscillator()
    ctrl = PpfController(K=6.0, zeta=0.7, omega=2.0)  # DC gain 1.5
    fb = nicore.positive_feedback(plant, nicore.ppf_realize(ctrl))
    assert fb.dc_gain_lambda_max > 1.0
    disc = nicore.to_discrete(fb.model, 0.01)
    assert np.max(np.abs(np.linalg.eigvals(disc.A))) > 1.0 + 1e-6


# ---------------------------------------------------------------------------
# serialization and plot data
# ---------------------------------------------------------------------------


def test_model_json_round_trip(tmp_path):
    from nikoopman import lifting

    rng = np.random.default_rng(8)
    d = random_stable_discrete(rng, 3, T=0.02)
    d = DiscreteLinearModel(
        A=d.A,
        B=d.B,
        C=d.C,
        D=d.D,
        T=d.T,
        dictionary=lifting.sample_centers(3, 2, [[-1, 1]] * 3, seed=1),
    )
    path = tmp_path / "model.json"
    nicore.save_model(path, d, solver={"alpha": 1e-3}, config={"seed": 0})
    again, solver, cont = nicore.load_model(path)
    assert np.allclose(again.A, d.A) and np.allclose(again.B, d.B)
    assert np.allclose(again.C, d.C) and np.allclose(again.D, d.D)
    assert again.T == d.T
    assert np.allclose(again.dictionary.centers, d.dictionary.centers)
    assert solver == {"alpha": 1e-3}
    assert cont is None

    # a model saved with its continuous realization reads it back exactly
    c = damped_oscillator(k1=2.0, b0=0.3)
    nicore.save_model(path, nicore.to_discrete(c, 0.02), continuous=c)
    _, solver, cont = nicore.load_model(path)
    assert solver is None
    for got, want in [(cont.A, c.A), (cont.B, c.B), (cont.C, c.C), (cont.D, c.D)]:
        assert np.array_equal(got, want)


def test_bode_columns():
    c = ContinuousLinearModel(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
    mag_db, phase = nicore.bode_columns(nicore.freq_response(c, [1.0])[:, 0, 0])
    assert mag_db[0] == pytest.approx(20 * np.log10(1 / np.sqrt(2)))
    assert phase[0] == pytest.approx(-45.0)
