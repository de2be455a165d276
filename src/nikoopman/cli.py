"""Batch command-line frontend.

Four file-based stages with deterministic seeds:

    nikoopman simulate   plant -> trajectory CSV
    nikoopman identify   trajectory CSV -> model JSON (NI or unconstrained)
    nikoopman linearize  plant Jacobian -> model JSON
    nikoopman validate   models + trajectory -> report JSON and plot CSVs

Exit codes: 0 ok, 2 usage errors, 3 simulation divergence, 4 a solver stage
(the NI program or the certificate completion) stopped before its target
(output still written, flagged), 5 validation could not produce a report.
Every output file embeds the resolved configuration: every parsed option of
its subcommand except the output path.
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


def _config_json(args: argparse.Namespace) -> dict:
    """Every parsed option except the subcommand, its handler and the output path."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "fn", "out", "out_dir")}


def _msd_from_args(args) -> dynamics.MsdParams:
    return dynamics.MsdParams(
        m=args.m, k1=args.k1, k3=args.k3, b0=args.b0, b1=args.b1, b2=args.b2
    )


def _add_plant_args(p: argparse.ArgumentParser) -> None:
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
    config = json.dumps(_config_json(args), sort_keys=True)
    traj.save_csv(args.out, extra_comments=[f"config={config}"])
    print(f"wrote {args.out} ({traj.L} steps, T={traj.T})")
    return EXIT_OK


def cmd_identify(args) -> int:
    path = Path(args.traj)
    if not path.exists():
        print(f"error: trajectory file {path} not found", file=sys.stderr)
        return EXIT_USAGE
    traj = dynamics.TrajectoryData.load_csv(path)
    dictionary = lifting.make_dictionary(traj, n_rbf=args.nrbf, seed=args.center_seed)
    exit_code = EXIT_OK
    if args.mode == "unconstrained":
        result = identify.identify_unconstrained(traj, dictionary)
        solver = {
            "mode": "unconstrained",
            "residual_j1": result.edmd.residual_j1,
            "residual_j2": result.edmd.residual_j2,
        }
    else:
        result = identify.identify_ni(
            traj, dictionary, alpha=args.alpha, strict_b=args.strict_b, max_iters=args.max_iters
        )
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
        comp = ni.completion
        if comp is not None:
            solver["completion"] = {k: getattr(comp, k) for k in (
                "b_fit_rel", "iterations", "gap", "converged", "bound_active")}
        if not ni.converged or (comp is not None and not comp.converged):
            exit_code = EXIT_SOLVER
    nicore.save_model(args.out, result.model, solver=solver, config=_config_json(args))
    flag = "" if exit_code == EXIT_OK else " (solver not converged, flagged)"
    print(f"wrote {args.out}{flag}")
    return exit_code


def cmd_linearize(args) -> int:
    params = _msd_from_args(args)
    x0 = _parse_floats(args.x0, 2, "--x0")
    cont = analysis.linearize_msd(params, x0)
    disc = nicore.to_discrete(cont, args.T)
    nicore.save_model(args.out, disc, config=_config_json(args), continuous=cont)
    print(f"wrote {args.out}")
    return EXIT_OK


def _suffixed(base: list[str], names: list[str]) -> list[str]:
    # single model keeps the plain column names
    if len(names) == 1:
        return base
    out = [base[0]]
    for name in names:
        out += [f"{col}_{name}" for col in base[1:]]
    return out


def cmd_validate(args) -> int:
    # a malformed --grid or --ppf exits 2 before anything is written
    omegas = _parse_grid(args.grid)
    ctrl = None
    if args.ppf is not None:
        K, zeta, omega = _parse_floats(args.ppf, 3, "--ppf")
        ctrl = nicore.PpfController(K=K, zeta=zeta, omega=omega)
    traj_path = Path(args.traj)
    model_paths = [Path(p) for p in args.models.split(",") if p]
    missing = [str(p) for p in [traj_path, *model_paths] if not p.exists()]
    if missing:
        print(f"error: missing input files: {', '.join(missing)}", file=sys.stderr)
        return EXIT_USAGE
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
        report = analysis.compare_models(
            reference, candidates, ctrl=ctrl, omegas=omegas, provenance=_config_json(args)
        )
    except nicore.PoleOnGridError:
        raise  # a usage error (exit 2), raised before anything is written
    except Exception as exc:
        print(f"error: validation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    # every column is built before the output directory is made, so a grid
    # frequency on a pole of a closed loop (exit 2) leaves nothing behind
    names = [c.name for c in candidates]

    # open-loop Bode, open- or closed-loop Nyquist and closed-loop step
    # columns from the response and loop that evaluate_model built; a model
    # that failed gets empty cells in every CSV
    steps = int(args.steps)
    bode, nyquist, step = [omegas], [omegas], [reference.T * np.arange(steps + 1)]
    for rep in report.models:
        if rep.error is not None:
            bode += [(), ()]
            nyquist += [(), ()]
            step.append(())
            continue
        G = rep.response[:, 0, 0]
        bode += nicore.bode_columns(G)
        if ctrl is not None:
            loop = rep.closed_loop.loop
            G = nicore.freq_response(loop, omegas)[:, 0, 0]
            # a diverged step response ends early with empty cells
            step.append(analysis.step_response(loop, reference.T, steps).outputs[:, 0])
        nyquist += [G.real, G.imag]

    # predicted output time series next to the reference; a failed model's
    # cells stay empty
    preds = [rep.predicted_states[:, 0] if rep.predicted_states is not None else ()
             for rep in report.models]
    csvs = [
        ("bode.csv", _suffixed(["omega", "mag_db", "phase_deg"], names), bode),
        ("nyquist.csv", _suffixed(["omega", "re", "im"], names), nyquist),
        ("timeseries.csv", ["t", "y_true"] + [f"y_{n}" for n in names],
         [reference.times, reference.outputs[:, 0], *preds]),
    ]

    if ctrl is not None:
        csvs.append(("step.csv", _suffixed(["t", "y"], names), step))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    nicore.write_json(out_dir / "report.json", report.to_json_dict())
    for name, header, columns in csvs:
        with open(out_dir / name, "w") as fh:
            dynamics.write_csv(fh, header, columns)

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
    p.add_argument("--input", default="random", choices=["random", "prbs", "zero"])
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
