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
    assert run(["simulate", "--input", "nope", "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["identify", "--traj", str(tmp_path / "missing.csv"),
                "--out", str(tmp_path / "m.json")]) == 2


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


def test_validate_grid_on_pole_exit_two(linear_traj_file, tmp_path, capsys):
    # the origin linearization has poles at +/- j, and the 5-point grid holds w = 1
    lin0 = tmp_path / "lin0.json"
    assert run(["linearize", "--x0", "0,0", "--T", "0.01", "--out", str(lin0)]) == 0
    code = run(["validate", "--models", str(lin0), "--traj", str(linear_traj_file),
                "--grid", "1e-2,1e2,5", "--out-dir", str(tmp_path / "val")])
    assert code == 2
    assert "omega = 1 rad/s" in capsys.readouterr().err


def test_full_pipeline_byte_determinism(tmp_path):
    # identical commands, run twice onto the same paths: every output byte
    # must reproduce
    traj = tmp_path / "traj.csv"
    model = tmp_path / "model.json"
    out_dir = tmp_path / "val"

    def pipeline():
        assert run(["simulate", "--steps", "300", "--hold", "20", "--seed", "5",
                    "--out", str(traj)]) == 0
        assert run(["identify", "--traj", str(traj), "--nrbf", "4",
                    "--center-seed", "1", "--alpha", "1e-5", "--strict-b",
                    "--max-iters", "60000", "--out", str(model)]) in (0, 4)
        assert run(["validate", "--models", str(model), "--traj", str(traj),
                    "--ppf", "0.5,0.7,2", "--out-dir", str(out_dir)]) == 0
        names = [traj, model] + [
            out_dir / n
            for n in ["report.json", "bode.csv", "nyquist.csv", "step.csv", "timeseries.csv"]
        ]
        return {str(p): p.read_bytes() for p in names}

    first = pipeline()
    second = pipeline()
    assert first == second


def test_help_exits_cleanly():
    assert run(["--help"]) == 0
