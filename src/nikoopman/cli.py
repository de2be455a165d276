"""Batch command-line frontend.

Four file-based stages with deterministic seeds:

    nikoopman simulate   plant -> trajectory CSV
    nikoopman identify   trajectory CSV -> model JSON (NI or unconstrained)
    nikoopman linearize  plant Jacobian -> model JSON
    nikoopman validate   models + trajectory -> report JSON and plot CSVs

Exit codes: 0 ok, 2 usage errors, 3 simulation divergence, 4 a solver stage
(the NI program or the certificate completion) stopped before its target
(output still written, flagged), 5 validation could not produce a report.
Every output file embeds the resolved configuration.  The environment
variable ``NIKOOPMAN_TOL_SCALE`` scales all numeric tolerances.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, dynamics, identify, lifting, nicore

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SIMULATION = 3
EXIT_SOLVER = 4
EXIT_VALIDATION = 5

# after a bare --x0, argparse takes "-0.5,0.5" for an option; "--x0=..." is one token
X0_HELP = "initial state, comma separated; with a leading minus write --x0=-0.5,0.5"


def _parse_floats(text: str, expected: int | None = None, name: str = "value") -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad {name} {text!r}") from exc
    if expected is not None and len(values) != expected:
        raise argparse.ArgumentTypeError(f"{name} needs {expected} comma-separated values")
    return values


def _parse_grid(text: str) -> np.ndarray:
    """Frequencies of ``--grid wmin,wmax,npts``: positive finite bounds, npts >= 1 whole."""
    w_min, w_max, n_pts = _parse_floats(text, 3, "--grid")
    if not all(np.isfinite(w) and w > 0 for w in (w_min, w_max)):
        raise argparse.ArgumentTypeError(
            f"--grid bounds must be positive and finite, got {text!r}"
        )
    if not (np.isfinite(n_pts) and n_pts >= 1 and n_pts.is_integer()):
        raise argparse.ArgumentTypeError(
            f"--grid point count must be a positive integer, got {text!r}"
        )
    return nicore.default_frequency_grid(w_min, w_max, int(n_pts))


def _config_json(args: argparse.Namespace, keys: list[str]) -> dict:
    return {k: getattr(args, k) for k in keys}


def _msd_from_args(args) -> dynamics.MsdParams:
    return dynamics.MsdParams(
        m=args.m, k1=args.k1, k3=args.k3, b0=args.b0, b1=args.b1, b2=args.b2
    )


def _add_plant_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", default="msd", choices=["msd"])
    p.add_argument("--m", type=float, default=1.0, help="mass")
    p.add_argument("--k1", type=float, default=1.0, help="linear spring coefficient")
    p.add_argument("--k3", type=float, default=1.0, help="cubic spring coefficient")
    p.add_argument("--b0", type=float, default=0.0, help="constant damping")
    p.add_argument("--b1", type=float, default=1.0, help="position^2 damping")
    p.add_argument("--b2", type=float, default=1.0, help="velocity^2 damping")


def cmd_simulate(args) -> int:
    params = _msd_from_args(args)
    x0 = _parse_floats(args.x0, 2, "--x0")
    spec = dynamics.InputSignal(
        kind=args.input, amplitude=args.amplitude, hold=args.hold, seed=args.seed
    )
    try:
        traj = dynamics.simulate(params, x0, spec, T=args.T, L=args.steps)
    except dynamics.NonFiniteTrajectoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    cfg = _config_json(
        args,
        ["system", "m", "k1", "k3", "b0", "b1", "b2", "x0", "input",
         "amplitude", "hold", "T", "steps", "seed"],
    )
    traj.save_csv(args.out, extra_comments=[f"config={json.dumps(cfg, sort_keys=True)}"])
    print(f"wrote {args.out} ({traj.L} steps, T={traj.T})")
    return EXIT_OK


def cmd_identify(args) -> int:
    path = Path(args.traj)
    if not path.exists():
        print(f"error: trajectory file {path} not found", file=sys.stderr)
        return EXIT_USAGE
    traj = dynamics.TrajectoryData.load_csv(path)
    dictionary = lifting.make_dictionary(
        traj, n_rbf=args.nrbf, seed=args.center_seed, normalize=args.normalize
    )
    cfg_json = _config_json(
        args,
        ["traj", "nrbf", "center_seed", "alpha", "mode", "strict_b",
         "normalize", "max_iters"],
    )
    exit_code = EXIT_OK
    if args.mode == "unconstrained":
        result = identify.identify_unconstrained(traj, dictionary)
        solver = {
            "mode": "unconstrained",
            "residual_j1": result.edmd.residual_j1,
            "residual_j2": result.edmd.residual_j2,
        }
    else:
        cfg = identify.IdentifyConfig(
            alpha=args.alpha,
            strict_b=args.strict_b,
            max_iters=args.max_iters,
        )
        result = identify.identify_ni(traj, dictionary, cfg)
        ni = result.ni
        solver = {
            "mode": "ni",
            "alpha": args.alpha,
            "iterations": ni.iterations,
            "primal_res": ni.primal_res,
            "dual_res": ni.dual_res,
            "objective": ni.objective,
            "lmi_min_eig": ni.lmi_min_eig,
            "converged": ni.converged,
            "P": ni.P.tolist(),
            "residual_j1": result.edmd.residual_j1,
            "residual_j2": result.edmd.residual_j2,
        }
        if ni.completion is not None:
            solver["completion"] = ni.completion
        if not ni.converged or (ni.completion is not None and not ni.completion["converged"]):
            exit_code = EXIT_SOLVER
    nicore.save_model(args.out, result.model, solver=solver, config=cfg_json)
    flag = "" if exit_code == EXIT_OK else " (solver not converged, flagged)"
    print(f"wrote {args.out}{flag}")
    return exit_code


def cmd_linearize(args) -> int:
    params = _msd_from_args(args)
    x0 = _parse_floats(args.x0, 2, "--x0")
    cont = analysis.linearize_msd(params, x0)
    disc = nicore.to_discrete(cont, args.T)
    cfg_json = _config_json(
        args, ["system", "m", "k1", "k3", "b0", "b1", "b2", "x0", "T"]
    )
    nicore.save_model(args.out, disc, config=cfg_json, continuous=cont)
    print(f"wrote {args.out}")
    return EXIT_OK


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _suffixed(base: list[str], names: list[str]) -> list[str]:
    # single model keeps the plain column names
    if len(names) == 1:
        return base
    out = [base[0]]
    for name in names:
        out += [f"{col}_{name}" for col in base[1:]]
    return out


def cmd_validate(args) -> int:
    omegas = _parse_grid(args.grid)  # a malformed grid exits 2 before anything is written
    traj_path = Path(args.traj)
    model_paths = [Path(p) for p in args.models.split(",") if p]
    missing = [str(p) for p in [traj_path, *model_paths] if not p.exists()]
    if missing:
        print(f"error: missing input files: {', '.join(missing)}", file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        reference = dynamics.TrajectoryData.load_csv(traj_path)
        candidates = []
        for p in model_paths:
            # a linearization simulates through its continuous block
            mdl, solver, cont = nicore.load_model(p)
            P = np.asarray(solver["P"], dtype=float) if solver and "P" in solver else None
            candidates.append(analysis.CandidateModel(
                name=p.stem, discrete=mdl if cont is None else None, continuous=cont, P=P
            ))
        ctrl = None
        if args.ppf is not None:
            K, zeta, omega = _parse_floats(args.ppf, 3, "--ppf")
            ctrl = nicore.PpfController(K=K, zeta=zeta, omega=omega)
        cfg_json = _config_json(args, ["models", "traj", "ppf", "grid", "steps"])
        report = analysis.compare_models(
            reference, candidates, ctrl=ctrl, omegas=omegas, provenance=cfg_json
        )
    except Exception as exc:
        print(f"error: validation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    with open(out_dir / "report.json", "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    names = [c.name for c in candidates]
    fmt = "{:.12e}".format

    # open-loop Bode and time-domain comparison per model
    bode_cols: list[list[tuple[float, float, float]]] = []
    nyq_cols: list[list[tuple[float, float, float]]] = []
    for cand in candidates:
        cont = cand.to_continuous()
        bode_cols.append(nicore.bode_rows(cont, omegas))
        if ctrl is None:
            nyq_cols.append(nicore.nyquist_rows(cont, omegas))
        else:
            fb = nicore.positive_feedback(cont, nicore.ppf_realize(ctrl))
            nyq_cols.append(nicore.nyquist_rows(fb.model, omegas))
    rows = []
    for k, w in enumerate(omegas):
        row = [fmt(w)]
        for col in bode_cols:
            row += [fmt(col[k][1]), fmt(col[k][2])]
        rows.append(row)
    _write_csv(out_dir / "bode.csv", _suffixed(["omega", "mag_db", "phase_deg"], names), rows)
    rows = []
    for k, w in enumerate(omegas):
        row = [fmt(w)]
        for col in nyq_cols:
            row += [fmt(col[k][1]), fmt(col[k][2])]
        rows.append(row)
    _write_csv(out_dir / "nyquist.csv", _suffixed(["omega", "re", "im"], names), rows)

    # predicted output time series next to the reference
    header = ["t", "y_true"] + [f"y_{n}" for n in names]
    rows = []
    times = reference.times
    preds = []
    for cand, rep in zip(candidates, report.models):
        preds.append(rep.predicted_states[:, 0] if rep.predicted_states is not None else None)
    for j, t in enumerate(times):
        row = [fmt(t), fmt(reference.outputs[j, 0])]
        for p in preds:
            row.append(fmt(p[j]) if p is not None else "")
        rows.append(row)
    _write_csv(out_dir / "timeseries.csv", header, rows)

    # closed-loop step responses
    if ctrl is not None:
        steps = int(args.steps)
        responses = []
        for cand in candidates:
            fb = nicore.positive_feedback(cand.to_continuous(), nicore.ppf_realize(ctrl))
            responses.append(analysis.step_response(fb.model, reference.T, steps))
        rows = []
        for j in range(steps + 1):
            row = [fmt(j * reference.T)]
            for resp in responses:
                row.append(fmt(resp.outputs[j, 0]) if j < resp.outputs.shape[0] else "")
            rows.append(row)
        _write_csv(out_dir / "step.csv", _suffixed(["t", "y"], names), rows)

    print(f"wrote {out_dir}/report.json and plot CSVs")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nikoopman",
        description="Lifted linear identification with the negative-imaginary "
        "property as a convex constraint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate the plant and write a trajectory CSV")
    _add_plant_args(p)
    p.add_argument("--x0", default="0,0", help=X0_HELP)
    p.add_argument("--input", default="random", choices=["random", "prbs", "sine", "zero"])
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--hold", type=int, default=25, help="samples per input plateau")
    p.add_argument("--T", type=float, default=0.01, help="sampling time, seconds")
    p.add_argument("--steps", type=int, default=1000, help="number of samples L")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("identify", help="fit a lifted model from a trajectory CSV")
    p.add_argument("--traj", required=True)
    p.add_argument("--nrbf", type=int, default=6, help="number of thin-plate RBF observables")
    p.add_argument("--center-seed", type=int, default=0, dest="center_seed")
    p.add_argument("--alpha", type=float, default=1e-3, help="LMI strictness margin")
    p.add_argument("--mode", default="ni", choices=["ni", "unconstrained"])
    p.add_argument("--strict-b", action="store_true", dest="strict_b",
                   help="recompute B from the NI equality (full certificate)")
    p.add_argument("--normalize", action="store_true", help="z-score states before lifting")
    p.add_argument("--max-iters", type=int, default=20000, dest="max_iters")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_identify)

    p = sub.add_parser("linearize", help="Jacobian linearization of the plant")
    _add_plant_args(p)
    p.add_argument("--x0", default="0,0", help=X0_HELP)
    p.add_argument("--T", type=float, default=0.01)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_linearize)

    p = sub.add_parser("validate", help="compare models against a trajectory")
    p.add_argument("--models", required=True, help="comma-separated model JSON paths")
    p.add_argument("--traj", required=True)
    p.add_argument("--ppf", default=None, help="K,zeta,omega of the PPF controller")
    p.add_argument("--grid", default="1e-2,1e2,200",
                   help="wmin,wmax,npts log-spaced frequency grid in rad/s; "
                   "bounds positive and finite, npts a positive integer")
    p.add_argument("--steps", type=int, default=2000, help="closed-loop step-response length")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(fn=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
