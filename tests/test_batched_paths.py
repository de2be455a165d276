"""The batched and scalar fast paths equal their reference loops bit for bit.

``freq_response`` solves stacked chunks of frequencies, ``step_response``
forms its constant input terms once and tests divergence once per block of
steps, ``simulate`` integrates the mass-spring-damper on Python floats, the
linear simulations form their input terms in one product, and the CSV
writers and parser work a column or a file at a time.  The eigen kernels call
LAPACK ``syevd`` directly, and the NI-program ADMM replaces its weighted
X-update by the identity-weight scalar.  Each must reproduce the reference of
``oracles.py`` exactly, so the identification and validation artifacts do
not move.
"""

import io

import numpy as np
import pytest
from oracles import (
    csv_text_per_value,
    freq_response_per_frequency,
    psd_project_eigh,
    simulate_array_rk4,
    simulate_continuous_per_step,
    simulate_lifted_per_step,
    solve_ni_weighted,
    step_response_per_step,
    sym_eig_eigh,
    trajectory_from_csv_per_cell,
    trajectory_to_csv_per_value,
    validate_csvs_per_value,
)

from nikoopman import analysis, cli, dynamics, identify, lifting, matcore, nicore
from nikoopman.dynamics import InputSignal, MsdParams, NonFiniteTrajectoryError, TrajectoryData
from nikoopman.nicore import ContinuousLinearModel, DiscreteLinearModel, PpfController

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


def _unstable_first_order(gain):
    # x' = x + u, y = gain x: the step response grows by about 1% a step
    return ContinuousLinearModel(A=[[1.0]], B=[[1.0]], C=[[gain]], D=[[0.0]])


@pytest.mark.parametrize(
    "cut",
    [0, analysis.STEP_BLOCK // 2 + 1, analysis.STEP_BLOCK - 1, analysis.STEP_BLOCK,
     2 * analysis.STEP_BLOCK + 3],
    ids=["first-step", "mid-block", "block-end", "block-start", "third-block"],
)
def test_step_response_divergence_inside_and_at_block_edges(cut):
    if cut == 0:  # a feedthrough beyond the bound diverges on the first output
        c = ContinuousLinearModel(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[2e6]])
    else:
        # scale the output so that the bound 1e6 falls between steps cut - 1 and cut
        y, _ = step_response_per_step(_unstable_first_order(1.0), T, cut + 1)
        c = _unstable_first_order(1e6 / np.sqrt(y[cut - 1, 0] * y[cut, 0]))
    outputs, diverged = step_response_per_step(c, T, 4 * analysis.STEP_BLOCK)
    assert diverged and outputs.shape[0] == cut + 1
    resp = analysis.step_response(c, T, 4 * analysis.STEP_BLOCK)
    assert resp.diverged
    assert np.array_equal(resp.outputs, outputs)
    assert np.array_equal(resp.times, T * np.arange(cut + 1))


def test_step_response_overflow_after_divergence_is_cut():
    # the states overflow to inf and then nan inside the block that diverges
    c = ContinuousLinearModel(A=[[1e5]], B=[[1e300]], C=[[1.0]], D=[[0.0]])
    outputs, diverged = step_response_per_step(c, 1.0, 3 * analysis.STEP_BLOCK)
    resp = analysis.step_response(c, 1.0, 3 * analysis.STEP_BLOCK)
    assert diverged and resp.diverged
    assert np.array_equal(resp.outputs, outputs)


@pytest.mark.parametrize(
    "x0, spec, Ts",
    [
        ([0.0, 0.0], InputSignal(kind="random", amplitude=1.0, hold=25, seed=0), 0.01),
        ([0.3, -0.2], InputSignal(kind="random", amplitude=1.5, hold=100, seed=1000), 0.01),
        ([0.5, 0.0], InputSignal(kind="prbs", amplitude=2.0, hold=7, seed=3), 0.05),
    ],
    ids=["readme-train", "readme-val", "substeps"],
)
def test_simulate_matches_array_rk4(x0, spec, Ts):
    params = MsdParams()
    u = dynamics.make_input(spec, 2000)
    traj = dynamics.simulate(params, x0, u, T=Ts)
    assert np.array_equal(traj.states, simulate_array_rk4(params, x0, u, Ts))
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


# ---------------------------------------------------------------------------
# linear simulations with the input terms hoisted out of the recursion
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def readme_val():
    return dynamics.simulate(
        MsdParams(), [0.0, 0.0],
        InputSignal(kind="random", amplitude=1.5, hold=100, seed=1000), T=T, L=2500,
    )


def test_simulate_lifted_one_input_matches_per_step(readme_train, readme_val):
    dictionary = lifting.make_dictionary(readme_train, n_rbf=6, seed=0)
    model = identify.identify_unconstrained(readme_train, dictionary).model
    sim = identify.simulate_lifted(model, readme_val.states[0], readme_val.inputs)
    psi = simulate_lifted_per_step(model, readme_val.states[0], readme_val.inputs)
    assert np.array_equal(sim.lifted, psi)
    assert np.array_equal(sim.outputs, psi @ model.C.T)


def _stable_two_input(order, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((order, order))
    A *= 0.95 / np.max(np.abs(np.linalg.eigvals(A)))
    return A, rng.standard_normal((order, 2)), rng.uniform(-1.0, 1.0, (500, 2))


def _assert_close_to_scale(got, want):
    # rtol 1e-14, with the small entries measured against the largest one
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())


def test_simulate_lifted_two_inputs_close_to_per_step(readme_train):
    # with two inputs B u sums two products, so the hoisted form may round apart
    dictionary = lifting.make_dictionary(readme_train, n_rbf=6, seed=0)
    A, B, u = _stable_two_input(8)
    model = DiscreteLinearModel(A=A, B=B, C=np.eye(2, 8), D=np.zeros((2, 2)), T=T,
                                dictionary=dictionary)
    sim = identify.simulate_lifted(model, [0.3, -0.2], u)
    _assert_close_to_scale(sim.lifted, simulate_lifted_per_step(model, [0.3, -0.2], u))


def test_simulate_continuous_matches_per_step(readme_val):
    for x0 in ([0.0, 0.0], [0.5, 0.5]):
        lin = analysis.linearize_msd(MsdParams(), x0)
        got = analysis.simulate_continuous(lin, readme_val.states[0], readme_val.inputs, T)
        want = simulate_continuous_per_step(lin, readme_val.states[0], readme_val.inputs, T)
        assert np.array_equal(got, want)
    A, B, u = _stable_two_input(4, seed=1)
    c = ContinuousLinearModel(A=A - 2.0 * np.eye(4), B=B, C=np.eye(2, 4), D=np.zeros((2, 2)))
    _assert_close_to_scale(analysis.simulate_continuous(c, np.ones(4), u, T),
                           simulate_continuous_per_step(c, np.ones(4), u, T))


# ---------------------------------------------------------------------------
# CSV text: written a column at a time, parsed a file at a time
# ---------------------------------------------------------------------------


def _awkward_trajectory():
    # two inputs and two outputs, -0, subnormal, huge and tiny values
    rng = np.random.default_rng(7)
    states = rng.standard_normal((41, 2)) * np.logspace(-300, 300, 41)[:, None]
    states[3] = [-0.0, 0.0]
    states[4] = [5e-324, -2.2250738585072014e-308]
    inputs = rng.uniform(-1.0, 1.0, (40, 2))
    inputs[0] = [-0.0, 1e-17]
    return TrajectoryData(T=0.003, states=states, inputs=inputs, outputs=states[:, ::-1])


@pytest.mark.parametrize("traj", ["readme", "awkward"])
def test_trajectory_csv_matches_per_value(traj, readme_val, tmp_path):
    traj = readme_val if traj == "readme" else _awkward_trajectory()
    comments = ["config={\"seed\": 1000}"]
    traj.save_csv(tmp_path / "traj.csv", comments)
    text = (tmp_path / "traj.csv").read_text()
    assert text == trajectory_to_csv_per_value(traj, comments)
    T, states, inputs, outputs, _ = trajectory_from_csv_per_cell(text)
    again = TrajectoryData.from_csv(text)
    assert again.T == T
    assert np.array_equal(again.states, states)
    assert np.array_equal(again.inputs, inputs)
    assert np.array_equal(again.outputs, outputs)


@pytest.mark.parametrize(
    "short", [0, 3, dynamics.CSV_ROWS, dynamics.CSV_ROWS + 3],
    ids=["empty", "first-block", "block-edge", "second-block"],
)
def test_write_csv_matches_per_value_format(short):
    # nan, inf and -0 keep the text of str.format; a short column pads with ""
    rng = np.random.default_rng(3)
    n = 2 * dynamics.CSV_ROWS + 5
    full = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    full[:4] = [np.nan, np.inf, -np.inf, -0.0]
    part = full[::-1][:short]
    buf = io.StringIO()
    dynamics.write_csv(buf, ["a", "b"], [full, part])
    fmt = "{:.12e}".format
    rows = [[fmt(v), fmt(part[k]) if k < short else ""] for k, v in enumerate(full)]
    assert buf.getvalue() == csv_text_per_value(["a", "b"], rows)


def test_validate_csvs_match_per_value(tmp_path):
    """Bode, Nyquist, time-series and step CSVs, one model failing."""

    def run(*argv):
        return cli.main(list(argv))

    assert run("simulate", "--steps", "400", "--hold", "25", "--out", str(tmp_path / "tr.csv")) == 0
    assert run("simulate", "--steps", "2200", "--hold", "50", "--amplitude", "1.5", "--seed", "9",
               "--out", str(tmp_path / "val.csv")) == 0
    assert run("identify", "--traj", str(tmp_path / "tr.csv"), "--nrbf", "12",
               "--mode", "unconstrained", "--out", str(tmp_path / "plain.json")) == 0
    assert run("linearize", "--x0=0.5,0.5", "--out", str(tmp_path / "lin5.json")) == 0
    # no lifting dictionary and no continuous block: its simulation fails
    plain, _, _ = nicore.load_model(tmp_path / "plain.json")
    bare = DiscreteLinearModel(A=plain.A, B=plain.B, C=plain.C, D=plain.D, T=plain.T)
    nicore.save_model(tmp_path / "bare.json", bare)
    names = ["plain", "bare", "lin5"]
    out_dir = tmp_path / "out"
    assert run("validate", "--models", ",".join(str(tmp_path / f"{n}.json") for n in names),
               "--traj", str(tmp_path / "val.csv"), "--ppf", "1.2,0.7,2",
               "--grid", "1e-2,1e2,300", "--steps", "2100", "--out-dir", str(out_dir)) == 0

    ref_text = (tmp_path / "val.csv").read_text()
    T, states, inputs, outputs, _ = trajectory_from_csv_per_cell(ref_text)
    reference = TrajectoryData(T=T, states=states, inputs=inputs, outputs=outputs)
    candidates, predictions = [], []
    for name in names:
        mdl, _, cont = nicore.load_model(tmp_path / f"{name}.json")
        if cont is not None:
            candidates.append(analysis.CandidateModel(name=name, continuous=cont))
            predictions.append(simulate_continuous_per_step(cont, states[0], inputs, T))
        elif mdl.dictionary is not None:
            candidates.append(analysis.CandidateModel(name=name, discrete=mdl))
            psi = simulate_lifted_per_step(mdl, states[0], inputs)
            predictions.append(psi[:, :2])
        else:
            candidates.append(analysis.CandidateModel(name=name, discrete=mdl))
            predictions.append(None)
    want = validate_csvs_per_value(
        reference, candidates, predictions, nicore.default_frequency_grid(1e-2, 1e2, 300),
        PpfController(K=1.2, zeta=0.7, omega=2.0), 2100,
    )
    report = (out_dir / "report.json").read_text()
    assert '"error": "ValueError: model carries no lifting dictionary"' in report
    for name, text in want.items():
        assert (out_dir / name).read_text() == text, name
    # the failed model's prediction cells are empty; a step response diverged
    assert (out_dir / "timeseries.csv").read_text().splitlines()[1].split(",")[3] == ""
    assert "" in (out_dir / "step.csv").read_text().splitlines()[-1].split(",")


# ---------------------------------------------------------------------------
# eigen kernels and the NI-program ADMM
# ---------------------------------------------------------------------------


def _eigen_inputs(n, rng):
    """A random, a low-rank, a repeated-eigenvalue and a NaN matrix of order n."""
    a = rng.standard_normal((n, n))
    g = rng.standard_normal((n, max(1, n // 3)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.repeat(rng.standard_normal((n + 2) // 3), 3)[:n]
    nan = a.copy()
    nan[n // 2, 0] = np.nan
    return {"random": a, "low-rank": g @ g.T, "repeated": (q * d) @ q.T, "nan": nan}


def _result_or_error(f, a):
    try:
        return f(a)
    except matcore.NotConvergedError:
        return "not converged"


@pytest.mark.parametrize("n", range(2, 37))
def test_eigen_kernels_match_eigh(n):
    # a NaN makes both fail to converge for small n and returns NaNs for large n
    rng = np.random.default_rng(n)
    for a in _eigen_inputs(n, rng).values():
        got = _result_or_error(matcore.sym_eig, a)
        want = _result_or_error(sym_eig_eigh, a)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got.eigenvalues, want[0], equal_nan=True)
            assert np.array_equal(got.eigenvectors, want[1], equal_nan=True)
        # psd_project takes a symmetric matrix; the oracle symmetrizes a itself
        got = _result_or_error(matcore.psd_project, 0.5 * (a + a.T))
        want = _result_or_error(psd_project_eigh, a)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want, equal_nan=True)


def test_eigen_kernels_raise_when_syevd_fails(monkeypatch):
    def failing(a, lower=0):
        n = a.shape[0]
        return np.zeros(n), np.eye(n), 1

    monkeypatch.setattr(matcore, "_SYEVD", failing)
    for f in (matcore.sym_eig, matcore.psd_project):
        with pytest.raises(matcore.NotConvergedError, match="info = 1"):
            f(np.eye(3))


@pytest.mark.parametrize("n_rbf", [6, 16])
def test_solve_ni_matches_weighted_admm(readme_train, n_rbf):
    # 3,000 iterations of the README program: not converged, with step-size changes
    dictionary = lifting.make_dictionary(readme_train, n_rbf=n_rbf, seed=0)
    sol = identify.edmd_fit(lifting.build_matrices(readme_train, dictionary))
    got = identify.solve_ni(sol.G_A, alpha=1e-5, max_iters=3000)
    want = solve_ni_weighted(sol.G_A, 1e-5, 3000, identify.TOL.admm_rel)
    assert want["rho_changes"] >= 1 and not want["converged"]
    for key in ("P", "Q", "A_d"):
        assert np.array_equal(getattr(got, key), want[key]), key
    for key in ("iterations", "primal_res", "dual_res", "objective", "lmi_min_eig", "converged"):
        assert getattr(got, key) == want[key], key


def test_solve_ni_matches_weighted_admm_at_checkpoints(readme_train):
    # the iterate path after every iteration count in 1..60, where one ulp in
    # a residual norm would show before it can flip a step-size decision, and
    # around the second step-size change (iteration 1250); the counts that are
    # not multiples of 50 end on an iteration whose dual residual is formed
    # only for the returned record
    dictionary = lifting.make_dictionary(readme_train, n_rbf=6, seed=0)
    sol = identify.edmd_fit(lifting.build_matrices(readme_train, dictionary))
    rho_changes = {}
    for max_iters in [*range(1, 61), 137, 1001, 1249, 1250, 1251]:
        got = identify.solve_ni(sol.G_A, alpha=1e-5, max_iters=max_iters)
        want = solve_ni_weighted(sol.G_A, 1e-5, max_iters, identify.TOL.admm_rel)
        rho_changes[max_iters] = want["rho_changes"]
        assert got.primal_res == want["primal_res"], max_iters
        assert got.dual_res == want["dual_res"], max_iters
        assert np.array_equal(got.P, want["P"]), max_iters
    assert (rho_changes[49], rho_changes[50], rho_changes[1249], rho_changes[1250]) == (0, 1, 1, 2)


@pytest.mark.parametrize("program", ["readme-6", "readme-16", "scalar-g1"])
def test_solve_ni_projects_only_symmetric_matrices(readme_train, monkeypatch, program):
    # psd_project reads the lower triangle only, so it matches the
    # symmetrize-then-project oracle bit for bit only on exactly symmetric input
    if program == "scalar-g1":
        G_A, alpha = np.array([[1.0]]), 1.0
    else:
        n_rbf = int(program.split("-")[1])
        dictionary = lifting.make_dictionary(readme_train, n_rbf=n_rbf, seed=0)
        G_A = identify.edmd_fit(lifting.build_matrices(readme_train, dictionary)).G_A
        alpha = 1e-5
    project = matcore.psd_project
    calls = []

    def checked(a):
        assert np.array_equal(a, a.T)
        calls.append(1)
        return project(a)

    monkeypatch.setattr(matcore, "psd_project", checked)
    sol = identify.solve_ni(G_A, alpha=alpha, max_iters=500)
    assert len(calls) == sol.iterations + 1


def test_solve_ni_raises_when_syevd_fails_mid_run(monkeypatch):
    syevd = matcore._SYEVD
    calls = []

    def failing_on_tenth(a, lower=0):
        calls.append(1)
        w, v, info = syevd(a, lower=lower)
        return w, v, 1 if len(calls) == 10 else info

    monkeypatch.setattr(matcore, "_SYEVD", failing_on_tenth)
    with pytest.raises(matcore.NotConvergedError, match="info = 1"):
        identify.solve_ni(2.0 * np.eye(3), alpha=1.0, max_iters=100)
    assert len(calls) == 10
