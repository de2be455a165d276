"""End-to-end tests of the command-line frontend."""

import dataclasses
import json

import numpy as np
import pytest

from nikoopman import analysis, cli, identify
from nikoopman.dynamics import MsdParams, TrajectoryData


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_default_shape(tmp_path):
    out = tmp_path / "traj.csv"
    code = run(["simulate", "--steps", "50", "--seed", "3", "--out", str(out)])
    assert code == 0
    traj = TrajectoryData.load_csv(out)
    assert traj.L == 50
    text = out.read_text()
    assert text.startswith("# T=")
    assert "# config=" in text


def test_simulate_zero_input_zero_state(tmp_path):
    out = tmp_path / "traj.csv"
    assert run(["simulate", "--input", "zero", "--x0", "0,0", "--steps", "20",
                "--out", str(out)]) == 0
    traj = TrajectoryData.load_csv(out)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.inputs == 0.0)


def test_simulate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--steps", "100", "--seed", "11", "--hold", "7"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_divergence_exit_code(tmp_path):
    # negative stiffness makes the origin unstable under forcing
    out = tmp_path / "traj.csv"
    code = run(["simulate", "--k1", "-80", "--k3", "0", "--b1", "0", "--b2", "0",
                "--x0", "1,0", "--amplitude", "0", "--input", "zero", "--T", "0.5",
                "--steps", "2000", "--out", str(out)])
    assert code == 3


def test_bad_args_exit_two(tmp_path):
    for kind in ("nope", "sine"):
        assert run(["simulate", "--input", kind, "--out", str(tmp_path / "x.csv")]) == 2, kind
    assert not (tmp_path / "x.csv").exists()
    assert run(["identify", "--traj", str(tmp_path / "missing.csv"),
                "--out", str(tmp_path / "m.json")]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["identify", "--nrbf", "-1", "--mode", "unconstrained"], "n_rbf=-1"),
        (["identify", "--nrbf", "-3"], "n_rbf=-3"),
        (["identify", "--alpha", "nan"], "alpha must be positive and finite"),
        (["identify", "--alpha", "inf"], "alpha must be positive and finite"),
        (["simulate", "--T", "inf"], "sampling time must be positive and finite"),
        (["simulate", "--T", "nan"], "sampling time must be positive and finite"),
        (["simulate", "--amplitude", "nan"], "amplitude must be nonnegative and finite"),
    ],
    ids=["nrbf-negative-plain", "nrbf-negative-ni", "alpha-nan", "alpha-inf", "T-inf", "T-nan",
         "amplitude-nan"],
)
def test_malformed_numeric_option_exit_two(linear_traj_file, tmp_path, capsys, argv, message):
    # each value is checked where it enters, before any output is written
    out = tmp_path / "out"
    if argv[0] == "identify":
        argv = argv + ["--traj", str(linear_traj_file)]
    assert run(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--k1", "nan", "--steps", "20"],
        ["simulate", "--m", "nan", "--steps", "20"],
        ["simulate", "--b0", "nan", "--steps", "20"],
        ["linearize", "--T", "inf"],
        ["linearize", "--T", "nan"],
    ],
    ids=["k1-nan", "m-nan", "b0-nan", "linearize-T-inf", "linearize-T-nan"],
)
def test_non_finite_plant_option_exit_two(tmp_path, capsys, argv):
    # a non-finite coefficient or sampling time is a usage error, not a divergence
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# identify
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def linear_traj_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "lin.csv"
    assert run(["simulate", "--k3", "0", "--b0", "1", "--b1", "0", "--b2", "0",
                "--steps", "400", "--hold", "10", "--seed", "2",
                "--out", str(path)]) == 0
    return path


def test_identify_unconstrained(linear_traj_file, tmp_path):
    out = tmp_path / "un.json"
    code = run(["identify", "--traj", str(linear_traj_file), "--nrbf", "0",
                "--mode", "unconstrained", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["solver"]["mode"] == "unconstrained"
    assert "P" not in payload["solver"]
    assert payload["dict"]["n"] == 2
    assert payload["config"]["nrbf"] == 0  # resolved config embedded


def test_identify_ni_writes_certificate(linear_traj_file, tmp_path):
    out = tmp_path / "ni.json"
    code = run(["identify", "--traj", str(linear_traj_file), "--nrbf", "0",
                "--alpha", "1e-5", "--strict-b", "--max-iters", "100000",
                "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    solver = payload["solver"]
    assert solver["converged"] is True
    P = np.asarray(solver["P"])
    A = np.asarray(payload["A"])
    lyap = np.linalg.eigvalsh(A @ P @ A.T - P).max()
    assert lyap <= 1e-6
    assert solver["completion"]["b_fit_rel"] < 0.5
    assert solver["completion"]["bound_active"] is False


def test_identify_not_converged_exit_four(linear_traj_file, tmp_path):
    out = tmp_path / "nc.json"
    code = run(["identify", "--traj", str(linear_traj_file), "--nrbf", "0",
                "--alpha", "1e-5", "--max-iters", "5", "--out", str(out)])
    assert code == 4
    payload = json.loads(out.read_text())  # file still written, flagged
    assert payload["solver"]["converged"] is False


def test_identify_completion_not_converged_exit_four(linear_traj_file, tmp_path, monkeypatch):
    # exit code 4 covers the completion stage; solver.converged stays solve_ni's flag
    complete = identify.complete_certificate
    monkeypatch.setattr(identify, "complete_certificate",
                        lambda *args: dataclasses.replace(complete(*args), converged=False))
    out = tmp_path / "nc.json"
    code = run(["identify", "--traj", str(linear_traj_file), "--nrbf", "0",
                "--alpha", "1e-5", "--strict-b", "--max-iters", "100000",
                "--out", str(out)])
    assert code == 4
    solver = json.loads(out.read_text())["solver"]  # file still written, flagged
    assert solver["converged"] is True
    assert solver["completion"]["converged"] is False


# ---------------------------------------------------------------------------
# linearize
# ---------------------------------------------------------------------------


def test_linearize_origin(tmp_path):
    out = tmp_path / "lin.json"
    assert run(["linearize", "--x0", "0,0", "--T", "0.01", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert np.allclose(payload["continuous"]["A"], [[0.0, 1.0], [-1.0, 0.0]])
    assert "A" in payload and "T" in payload


def test_linearize_off_origin(tmp_path):
    out = tmp_path / "lin.json"
    assert run(["linearize", "--x0", "0.5,0.5", "--T", "0.01", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    A = np.asarray(payload["continuous"]["A"])
    assert A[1, 0] == pytest.approx(-2.25)
    assert A[1, 1] == pytest.approx(-1.0)


def test_linearize_negative_x0_equals_form(tmp_path):
    # "--x0 -0.5,0.5" reads as an option to argparse; the "=" form does not
    out = tmp_path / "lin.json"
    assert run(["linearize", "--x0=-0.5,0.5", "--T", "0.01", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    want = analysis.linearize_msd(MsdParams(), [-0.5, 0.5]).A
    assert np.allclose(payload["continuous"]["A"], want)


def test_linearize_linear_plant_same_everywhere(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["linearize", "--k3", "0", "--b0", "1", "--b1", "0", "--b2", "0", "--T", "0.01"]
    assert run(base + ["--x0", "0,0", "--out", str(a)]) == 0
    assert run(base + ["--x0", "0.9,-0.4", "--out", str(b)]) == 0
    pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
    assert np.allclose(pa["continuous"]["A"], pb["continuous"]["A"])


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_exact_model(linear_traj_file, tmp_path):
    lin = tmp_path / "lin.json"
    assert run(["linearize", "--k3", "0", "--b0", "1", "--b1", "0", "--b2", "0",
                "--x0", "0,0", "--T", "0.01", "--out", str(lin)]) == 0
    out_dir = tmp_path / "val"
    code = run(["validate", "--models", str(lin), "--traj", str(linear_traj_file),
                "--ppf", "0.5,0.7,2", "--out-dir", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    entry = report["models"][0]
    assert max(entry["mse_states"]) <= 1e-12  # exact plant model
    assert entry["closed_loop"]["verdict"] == "stable"
    assert (out_dir / "bode.csv").read_text().splitlines()[0] == "omega,mag_db,phase_deg"
    assert (out_dir / "nyquist.csv").read_text().splitlines()[0] == "omega,re,im"
    assert (out_dir / "step.csv").exists()
    ts_header = (out_dir / "timeseries.csv").read_text().splitlines()[0]
    assert ts_header == "t,y_true,y_lin"


def test_validate_without_ppf_skips_closed_loop(linear_traj_file, tmp_path):
    lin = tmp_path / "lin.json"
    assert run(["linearize", "--k3", "0", "--b0", "1", "--b1", "0", "--b2", "0",
                "--x0", "0,0", "--T", "0.01", "--out", str(lin)]) == 0
    out_dir = tmp_path / "val"
    assert run(["validate", "--models", str(lin), "--traj", str(linear_traj_file),
                "--out-dir", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert "closed_loop" not in report["models"][0]
    assert not (out_dir / "step.csv").exists()


def test_validate_missing_model_exit_two(linear_traj_file, tmp_path):
    assert run(["validate", "--models", str(tmp_path / "none.json"),
                "--traj", str(linear_traj_file), "--out-dir", str(tmp_path / "v")]) == 2


def test_validate_multi_model_report(linear_traj_file, tmp_path):
    lin0 = tmp_path / "lin0.json"
    lin5 = tmp_path / "lin5.json"
    base = ["linearize", "--T", "0.01"]
    assert run(base + ["--x0", "0,0", "--out", str(lin0)]) == 0
    assert run(base + ["--x0", "0.5,0.5", "--out", str(lin5)]) == 0
    out_dir = tmp_path / "val"
    code = run(["validate", "--models", f"{lin0},{lin5}", "--traj", str(linear_traj_file),
                "--ppf", "0.5,0.7,2", "--out-dir", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["models"]) == 2
    assert all("closed_loop" in m for m in report["models"])
    header = (out_dir / "bode.csv").read_text().splitlines()[0]
    assert header == "omega,mag_db_lin0,phase_deg_lin0,mag_db_lin5,phase_deg_lin5"


@pytest.mark.parametrize("grid", ["1e-2,1e2,0", "1e-2,1e2,2.5", "0,1,10"],
                         ids=["no-points", "fractional-count", "zero-bound"])
def test_validate_malformed_grid_exit_two(linear_traj_file, tmp_path, capsys, grid):
    lin = tmp_path / "lin.json"
    assert run(["linearize", "--x0", "0,0", "--T", "0.01", "--out", str(lin)]) == 0
    out_dir = tmp_path / "val"
    code = run(["validate", "--models", str(lin), "--traj", str(linear_traj_file),
                "--grid", grid, "--out-dir", str(out_dir)])
    assert code == 2
    assert "--grid" in capsys.readouterr().err
    assert not out_dir.exists()  # nothing written


@pytest.mark.parametrize("ppf", ["1,2", "0.5,x,2", "0.5,0.7,-2"],
                         ids=["two-values", "not-a-number", "negative-omega"])
def test_validate_malformed_ppf_exit_two(linear_traj_file, tmp_path, capsys, ppf):
    lin = tmp_path / "lin.json"
    assert run(["linearize", "--x0", "0,0", "--T", "0.01", "--out", str(lin)]) == 0
    out_dir = tmp_path / "val"
    code = run(["validate", "--models", str(lin), "--traj", str(linear_traj_file),
                "--ppf", ppf, "--out-dir", str(out_dir)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out_dir.exists()  # nothing written


def test_validate_grid_on_pole_exit_two(linear_traj_file, tmp_path, capsys):
    # the origin linearization has poles at +/- j, and the 5-point grid holds w = 1
    lin0 = tmp_path / "lin0.json"
    assert run(["linearize", "--x0", "0,0", "--T", "0.01", "--out", str(lin0)]) == 0
    code = run(["validate", "--models", str(lin0), "--traj", str(linear_traj_file),
                "--grid", "1e-2,1e2,5", "--out-dir", str(tmp_path / "val")])
    assert code == 2
    assert "omega = 1 rad/s" in capsys.readouterr().err
    assert not (tmp_path / "val").exists()  # nothing written, no partial report


@pytest.mark.parametrize(
    "ppf, fault, error",
    [
        (None, "minus-one", "SingularAtMinusOneError"),
        ("0.5,0.7,2", "minus-one", "SingularAtMinusOneError"),
        (None, "no-dict", "ValueError: model carries no lifting dictionary"),
        ("0.5,0.7,2", "no-dict", "ValueError: model carries no lifting dictionary"),
    ],
    ids=["open-loop", "ppf", "no-dict-open-loop", "no-dict-ppf"],
)
def test_validate_isolates_model_without_bilinear_image(
    linear_traj_file, tmp_path, ppf, fault, error
):
    # A_d with an eigenvalue at -1 has no continuous image, and a model
    # without its lifting dictionary cannot be simulated: either way that
    # model gets an error entry and empty cells in every CSV, and the other
    # model's columns are unchanged
    plain = tmp_path / "plain.json"
    assert run(["identify", "--traj", str(linear_traj_file), "--nrbf", "2",
                "--mode", "unconstrained", "--out", str(plain)]) == 0
    payload = json.loads(plain.read_text())
    if fault == "minus-one":
        payload["A"][0] = [-1.0] + [0.0] * (len(payload["A"]) - 1)
    else:
        payload["dict"] = None
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    extra = [] if ppf is None else ["--ppf", ppf]
    alone, both = tmp_path / "alone", tmp_path / "both"
    assert run(["validate", "--models", str(plain), "--traj", str(linear_traj_file),
                "--out-dir", str(alone), *extra]) == 0
    assert run(["validate", "--models", f"{plain},{bad}", "--traj", str(linear_traj_file),
                "--out-dir", str(both), *extra]) == 0
    report = json.loads((both / "report.json").read_text())
    assert "error" not in report["models"][0]
    assert report["models"][1]["error"].startswith(error)
    names = ["bode.csv", "nyquist.csv", "timeseries.csv"] + ([] if ppf is None else ["step.csv"])
    for name in names:
        want = (alone / name).read_text().splitlines()[1:]
        got = (both / name).read_text().splitlines()[1:]
        assert len(got) == len(want), name
        for row_got, row_want in zip(got, want):
            width = len(row_want.split(","))
            cells = row_got.split(",")
            assert ",".join(cells[:width]) == row_want, name
            assert all(c == "" for c in cells[width:]), name


def test_validate_rejects_non_finite_sampling_time(linear_traj_file, tmp_path, capsys):
    # a model file whose T is not a positive finite number fails to load
    # (exit 5) and names T, for NaN and inf as for a negative T
    plain = tmp_path / "plain.json"
    assert run(["identify", "--traj", str(linear_traj_file), "--nrbf", "2",
                "--mode", "unconstrained", "--out", str(plain)]) == 0
    payload = json.loads(plain.read_text())
    for T in (-1.0, float("nan"), float("inf")):
        payload["T"] = T
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(["validate", "--models", str(bad), "--traj", str(linear_traj_file),
                    "--out-dir", str(tmp_path / "val")]) == 5, T
        err = capsys.readouterr().err
        assert f"sampling time must be positive and finite, got {T}" in err, T
        assert not (tmp_path / "val").exists()


PLANT_KEYS = {"m", "k1", "k3", "b0", "b1", "b2", "x0"}


def test_config_block_key_sets(linear_traj_file, tmp_path):
    # each output embeds every parsed option of its subcommand but the output path
    traj = tmp_path / "traj.csv"
    assert run(["simulate", "--steps", "20", "--out", str(traj)]) == 0
    line = next(l for l in traj.read_text().splitlines() if l.startswith("# config="))
    assert set(json.loads(line[len("# config="):])) == PLANT_KEYS | {
        "input", "amplitude", "hold", "T", "steps", "seed"}

    model = tmp_path / "un.json"
    assert run(["identify", "--traj", str(linear_traj_file), "--nrbf", "0",
                "--mode", "unconstrained", "--out", str(model)]) == 0
    # the README's list for identify
    assert set(json.loads(model.read_text())["config"]) == {
        "traj", "nrbf", "center_seed", "alpha", "mode", "strict_b", "max_iters"}

    lin = tmp_path / "lin.json"
    assert run(["linearize", "--out", str(lin)]) == 0
    assert set(json.loads(lin.read_text())["config"]) == PLANT_KEYS | {"T"}

    out_dir = tmp_path / "val"
    assert run(["validate", "--models", str(model), "--traj", str(linear_traj_file),
                "--out-dir", str(out_dir)]) == 0
    provenance = json.loads((out_dir / "report.json").read_text())["provenance"]
    assert set(provenance) == {"models", "traj", "ppf", "grid", "steps"}


def test_help_exits_cleanly():
    assert run(["--help"]) == 0
