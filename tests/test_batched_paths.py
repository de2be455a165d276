"""The batched and scalar validation paths equal their reference loops bit for bit.

``freq_response`` solves stacked chunks of frequencies, ``step_response``
forms its constant input terms once and ``simulate`` integrates the
mass-spring-damper on Python floats.  Each must reproduce the one-at-a-time
loop of ``oracles.py`` exactly, so the validation artifacts do not move.
"""

import numpy as np
import pytest
from oracles import freq_response_per_frequency, simulate_array_rk4, step_response_per_step

from nikoopman import analysis, dynamics, identify, lifting, nicore
from nikoopman.dynamics import InputSignal, MsdParams, NonFiniteTrajectoryError
from nikoopman.nicore import ContinuousLinearModel, PpfController

T = 0.01
GRID = nicore.default_frequency_grid(1e-2, 1e2, 2000)
PPF = nicore.ppf_realize(PpfController(K=0.5, zeta=0.7, omega=2.0))


@pytest.fixture(scope="module")
def readme_train():
    return dynamics.simulate(
        MsdParams(), [0.0, 0.0], InputSignal(kind="random", amplitude=1.0, hold=25, seed=0),
        T=T, L=1000,
    )


@pytest.fixture(scope="module", params=[6, 12, 24], ids=["8-state", "14-state", "26-state"])
def readme_model(request, readme_train):
    """Continuous image of the plain lifted fit with 6, 12 or 24 RBFs."""
    dictionary = lifting.make_dictionary(readme_train, n_rbf=request.param, seed=0)
    model = identify.identify_unconstrained(readme_train, dictionary).model
    cont = nicore.to_continuous(model)
    assert cont.order == 2 + request.param
    return cont


def test_freq_response_matches_per_frequency(readme_model):
    closed = nicore.positive_feedback(readme_model, PPF).model
    for c in (readme_model, closed):
        assert np.array_equal(nicore.freq_response(c, GRID), freq_response_per_frequency(c, GRID))


def test_ni_frequency_check_matches_per_frequency(readme_model):
    G = freq_response_per_frequency(readme_model, GRID)
    eig_min = [np.linalg.eigvalsh(1j * (g - g.conj().T)).min() for g in G]
    k = int(np.argmin(eig_min))
    chk = nicore.ni_frequency_check(readme_model, GRID)
    assert chk.min_eig_over_grid == eig_min[k]
    assert chk.worst_omega == GRID[k]



def _non_normal_pair():
    # poles at +/- j1, each twice, with a coupling of 1e6: the pivot at w near
    # 1 is far smaller than the distance of jw to the poles
    R = np.array([[0.0, 1.0], [-1.0, 0.0]])
    A = np.block([[R, 1e6 * np.eye(2)], [np.zeros((2, 2)), R]])
    return ContinuousLinearModel(A=A, B=np.ones((4, 1)), C=np.ones((1, 4)), D=[[0.0]])


def _response_or_pole(f, c, omegas):
    try:
        return f(c, omegas)
    except nicore.PoleOnGridError as exc:
        return exc.omega


@pytest.mark.parametrize("model", ["lin0", "non-normal"])
@pytest.mark.parametrize("offset", [0.0, 1e-13, 1e-12, 1e-11, 1e-9, 1e-6])
def test_freq_response_near_pole_matches_per_frequency(model, offset):
    # lin0 stops being a pole between offsets 1e-13 and 1e-12, the non-normal
    # pair between 1e-9 and 1e-6; both must agree with the per-frequency loop
    c = analysis.linearize_msd(MsdParams(), [0.0, 0.0]) if model == "lin0" else _non_normal_pair()
    omegas = np.sort(np.append(GRID, 1.0 + offset))
    got = _response_or_pole(nicore.freq_response, c, omegas)
    want = _response_or_pole(freq_response_per_frequency, c, omegas)
    assert type(got) is type(want)
    assert np.array_equal(got, want)

def test_step_response_matches_per_step(readme_model):
    closed = nicore.positive_feedback(readme_model, PPF).model
    resp = analysis.step_response(closed, T, 2000)
    outputs, diverged = step_response_per_step(closed, T, 2000)
    assert np.array_equal(resp.outputs, outputs)
    assert resp.diverged == diverged


def test_step_response_divergence_cut_matches():
    # a PPF gain of 5 puts the DC coupling of the origin linearization at 1.25
    lin0 = analysis.linearize_msd(MsdParams(), [0.0, 0.0])
    ctrl = nicore.ppf_realize(PpfController(K=5.0, zeta=0.7, omega=2.0))
    closed = nicore.positive_feedback(lin0, ctrl).model
    resp = analysis.step_response(closed, T, 20000)
    outputs, diverged = step_response_per_step(closed, T, 20000)
    assert diverged and resp.diverged
    assert outputs.shape[0] < 20001
    assert np.array_equal(resp.outputs, outputs)


@pytest.mark.parametrize(
    "x0, spec, Ts, max_step",
    [
        ([0.0, 0.0], InputSignal(kind="random", amplitude=1.0, hold=25, seed=0), 0.01, 0.01),
        ([0.3, -0.2], InputSignal(kind="random", amplitude=1.5, hold=100, seed=1000), 0.01, 0.01),
        ([0.5, 0.0], InputSignal(kind="prbs", amplitude=2.0, hold=7, seed=3), 0.05, 0.01),
    ],
    ids=["readme-train", "readme-val", "substeps"],
)
def test_simulate_matches_array_rk4(x0, spec, Ts, max_step):
    params = MsdParams()
    u = dynamics.make_input(spec, 2000)
    traj = dynamics.simulate(params, x0, u, T=Ts, max_step=max_step)
    assert np.array_equal(traj.states, simulate_array_rk4(params, x0, u, Ts, max_step))
    assert np.array_equal(traj.outputs, traj.states[:, :1])


@pytest.mark.parametrize(
    "params, x0, Ts",
    [
        # negative stiffness: exponential growth until a product overflows
        (MsdParams(k1=-80.0, k3=0.0, b1=0.0, b2=0.0), [1.0, 0.0], 0.5),
        # softening cubic spring: finite-time escape, overflowing z**3
        (MsdParams(k3=-1.0, b1=0.0, b2=0.0), [2.0, 0.0], 0.01),
    ],
    ids=["exponential", "finite-time"],
)
def test_simulate_nonfinite_at_same_step(params, x0, Ts):
    u = np.zeros((2000, 1))
    with pytest.raises(NonFiniteTrajectoryError) as want:
        simulate_array_rk4(params, x0, u, Ts)
    with pytest.raises(NonFiniteTrajectoryError) as got:
        dynamics.simulate(params, x0, u, T=Ts)
    assert got.value.step == want.value.step
