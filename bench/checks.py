"""Correctness checks and quality figures read back from a pipeline's artifacts.

Acceptance criteria 1 and 3 are recomputed from the model JSON with numpy
alone, so they do not trust the package's own verdicts:

1. the certificate P stored in the model JSON satisfies the Schur-form LMI
   (min eigenvalue >= -1e-8) and lambda_max(A P A' - P) <= 1e-6; under
   --strict-b the Bode phase of the model's bilinear continuous image,
   recomputed on the grid of ``bode.csv``, stays inside (-180, 0) degrees
   and matches the phase column the package wrote;
3. the PPF loop closed around that continuous image is Hurwitz, its DC
   coupling is < 1, and the report's verdict agrees.

Criterion 2 compares the validation MSEs the report lists (recomputing them
would re-implement the lifting): the model's MSE is within 5x the
unconstrained fit's on every state and below each Jacobian linearization's.

Every workload also checks that the report lists every model without an
``error`` and that the CSVs have one row per grid point / sample.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads

LMI_MIN = -1e-8
LYAP_MAX = 1e-6
MSE_RATIO_MAX = 5.0


@dataclass
class Check:
    name: str
    command: str  # label of the command whose artifact is checked
    ok: bool
    detail: str


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def continuous_image(m: dict) -> tuple[np.ndarray, ...]:
    """Bilinear continuous realization of a discrete model JSON.

    A = (1/T)(I + A_d)^-1 (A_d - I),  B = (1/sqrt T)(I + A_d)^-1 B_d,
    C = (1/sqrt T) C_d (I + A_d)^-1,  D = D_d - C_d (I + A_d)^-1 B_d.
    """
    Ad, Bd, Cd, Dd = (np.asarray(m[k], dtype=float) for k in ("A", "B", "C", "D"))
    T = float(m["T"])
    eye = np.eye(Ad.shape[0])
    M = np.linalg.inv(eye + Ad)
    return (M @ (Ad - eye) / T, M @ Bd / np.sqrt(T), Cd @ M / np.sqrt(T), Dd - Cd @ M @ Bd)


def ppf_loop(m: dict) -> tuple[float, float]:
    """(largest real part of the closed-loop poles, DC coupling) under the PPF.

    The controller K / (s^2 + 2 zeta w s + w^2) in controllable form feeds
    its output back positively to the plant input; the bilinear map keeps
    Hurwitz stability equivalent to the package's discrete-loop verdict.
    """
    K, zeta, w = (float(v) for v in workloads.PPF.split(","))
    A, B, C, D = continuous_image(m)
    Ac = np.array([[0.0, 1.0], [-w * w, -2.0 * zeta * w]])
    Bc = np.array([[0.0], [1.0]])
    Cc = np.array([[K, 0.0]])
    A_cl = np.block([[A, B @ Cc], [Bc @ C, Ac + Bc @ D @ Cc]])
    g0 = D - C @ np.linalg.solve(A, B)
    return float(np.max(np.linalg.eigvals(A_cl).real)), float(g0[0, 0] * K / (w * w))


def report_checks(report: dict, plan, out_dir: Path) -> list[Check]:
    """Report completeness and CSV shapes."""
    label = "validate"
    models = {m["name"]: m for m in report["models"]}
    errors = [n for n, m in models.items() if "error" in m]
    out = [Check("report_models", label, len(models) == plan.n_models and not errors,
                 f"{len(models)} entries (want {plan.n_models}), errors: {errors}")]
    expect = {
        "bode.csv": plan.grid_points,
        "nyquist.csv": plan.grid_points,
        "step.csv": plan.step_steps + 1,
        "timeseries.csv": plan.val_steps + 1,
    }
    for fname, rows in expect.items():
        got = len(_csv_rows(out_dir / fname)) - 1
        out.append(Check(f"rows_{fname}", label, got == rows, f"{got} rows (want {rows})"))
    return out


def certificate_checks(d: Path, stem: str, plan, report: dict) -> list[Check]:
    """Criteria 1-3 for the certified model ``stem`` of a complete report."""
    m = load_json(d / f"{stem}.json")
    A = np.asarray(m["A"], dtype=float)
    P = np.asarray(m["solver"]["P"], dtype=float)
    alpha = float(m["solver"]["alpha"])
    n = A.shape[0]
    Q = A @ P
    block = np.block([[P - alpha * np.eye(n), Q], [Q.T, P]])
    lmi_min = float(np.linalg.eigvalsh(0.5 * (block + block.T))[0])
    lyap = A @ P @ A.T - P
    lyap_max = float(np.linalg.eigvalsh(0.5 * (lyap + lyap.T))[-1])
    out = [
        Check("lmi_min_eig", "identify-ni", lmi_min >= LMI_MIN, f"{lmi_min:.3e} >= {LMI_MIN:g}"),
        Check("lyap_max_eig", "identify-ni", lyap_max <= LYAP_MAX,
              f"{lyap_max:.3e} <= {LYAP_MAX:g}"),
    ]
    if "completion" in m["solver"]:  # --strict-b
        rows = _csv_rows(d / "out" / "bode.csv")
        col = rows[0].index(f"phase_deg_{stem}" if plan.n_models > 1 else "phase_deg")
        omegas = np.array([float(r[0]) for r in rows[1:]])
        written = np.array([float(r[col]) for r in rows[1:]])
        Ac, Bc, Cc, Dc = continuous_image(m)
        eye = np.eye(n)
        G = np.array([(Cc @ np.linalg.solve(1j * w * eye - Ac, Bc) + Dc)[0, 0] for w in omegas])
        phases = np.degrees(np.angle(G))
        ok = bool(np.all(phases < 0.0) and np.all(phases > -180.0))
        out.append(Check("phase_in_ni_band", "identify-ni", ok,
                         f"phase in [{phases.min():.2f}, {phases.max():.2f}] deg"))
        gap = float(np.max(np.abs(phases - written)))
        out.append(Check("phase_matches_bode_csv", "validate", gap <= 1e-6,
                         f"largest gap {gap:.2e} deg"))

    models = {e["name"]: e for e in report["models"]}
    mse = np.asarray(models[stem]["mse_states"])
    ref = np.asarray(models[plan.reference]["mse_states"])
    ratio = float(np.max(mse / ref))
    out.append(Check(f"mse_vs_{plan.reference}", "validate", ratio <= MSE_RATIO_MAX,
                     f"worst-state ratio {ratio:.3f} <= {MSE_RATIO_MAX:g}"))
    for lin in plan.linearizations:
        lin_mse = np.asarray(models[lin]["mse_states"])
        out.append(Check(f"mse_below_{lin}", "validate", bool(np.all(mse < lin_mse)),
                         f"{mse.tolist()} < {lin_mse.tolist()}"))
    max_re, coupling = ppf_loop(m)
    verdict = models[stem]["closed_loop"]["verdict"]
    ok = max_re < 0.0 and coupling < 1.0 and verdict == "stable"
    out.append(Check("ppf_loop_stable", "identify-ni", ok,
                     f"poles max Re {max_re:.3e} < 0, dc coupling {coupling:.3f} < 1, "
                     f"report says {verdict}"))
    return out


def quality(report: dict, plan, d: Path) -> dict[str, float]:
    """Quality of the workload's subject model against its reference.

    ``fit_objective`` is the cost the last fitting stage minimized, at the
    returned model: the completion's relative B-fit error under --strict-b,
    the NI program's reduced cost otherwise, the least-squares residual for an
    unconstrained fit.  Under --strict-b the stored reduced cost is evaluated
    at the completed P, a by-product of which certificate the completion
    picks (running the completion longer lowers b_fit_rel and raises it), so
    it is reported as ``reduced_cost`` but not used as the figure of merit.
    """
    models = {m["name"]: m for m in report["models"]}
    mse = np.asarray(models[plan.subject]["mse_states"], dtype=float)
    ref = np.asarray(models[plan.reference]["mse_states"], dtype=float)
    solver = load_json(d / f"{plan.subject}.json")["solver"]
    out = {"val_mse": float(mse.mean()), "mse_ratio": float(np.max(mse / ref))}
    if "completion" in solver:
        out["fit_objective"] = float(solver["completion"]["b_fit_rel"])
    elif solver["mode"] == "ni":
        out["fit_objective"] = float(solver["objective"])
    else:
        out["fit_objective"] = float(solver["residual_j1"])
    if solver["mode"] == "ni":
        out["reduced_cost"] = float(solver["objective"])
    return out


def stages(d: Path, plan) -> list[tuple[str, bool, int]]:
    """(stage, converged, iterations) for every solver stage in the model JSONs."""
    out = []
    for stem in plan.ni_models:
        solver = load_json(d / f"{stem}.json")["solver"]
        out.append(("solve_ni", bool(solver["converged"]), int(solver["iterations"])))
        if "completion" in solver:
            comp = solver["completion"]
            out.append(("complete_certificate", bool(comp["converged"]), int(comp["iterations"])))
    return out
