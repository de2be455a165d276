"""Workload definitions: the CLI command sequences the benchmark drives.

Every workload is a closed loop with one client: the commands run one after
another, each waiting for the previous one.  A workload is described by the
argv lists it hands to ``nikoopman.cli.main`` plus the facts the correctness
checks and quality metrics need (which model is under test, which is its
reference, the grid and step counts the CSVs must have).

The seed perturbs the initial state of every simulated trajectory by
``seed * X0_SHIFT`` in x1, so each seed is a distinct input of the same
scenario and seed 0 is the README scenario verbatim.  Shifting the data,
center or validation seeds instead changes the ADMM iteration count by up to
2x and the validation MSE by up to 300x (see NOTES.md), which would swamp
every bound the benchmark can set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

X0_SHIFT = 1e-9

PPF = "0.5,0.7,2"


@dataclass(frozen=True)
class Size:
    """Sizes a workload runs at; ``TINY`` is the smoke configuration."""

    train_steps: int = 1000
    max_iters: int = 200000
    grid_points: int = 200
    dense_grid_points: int = 2000
    dense_val_steps: int = 20000


FULL = Size()
TINY = Size(train_steps=300, max_iters=300, grid_points=20, dense_grid_points=20,
            dense_val_steps=300)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: a label for reporting and its argv."""

    label: str
    argv: list[str]

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Plan:
    """The command sequence of one pipeline and what its artifacts must hold."""

    commands: list[Command]
    subject: str  # model file stem whose quality is reported
    reference: str  # model file stem the subject's MSE is compared against
    ni_models: list[str] = field(default_factory=list)  # stems carrying a certificate
    linearizations: list[str] = field(default_factory=list)
    n_models: int = 0
    grid_points: int = 0
    step_steps: int = 2000
    val_steps: int = 1000


def _x0(seed: int) -> str:
    return "0,0" if seed == 0 else f"{seed * X0_SHIFT!r},0"


def _simulate_train(d: Path, seed: int, size: Size) -> Command:
    return Command("simulate-train", [
        "simulate", "--input", "random", "--amplitude", "1", "--hold", "25", "--T", "0.01",
        "--steps", str(size.train_steps), "--seed", "0", f"--x0={_x0(seed)}",
        "--out", str(d / "traj.csv"),
    ])


def _simulate_val(d: Path, seed: int, steps: int | None = None) -> Command:
    argv = ["simulate", "--seed", "1000", "--hold", "100", "--amplitude", "1.5",
            f"--x0={_x0(seed)}", "--out", str(d / "val.csv")]
    if steps is not None:
        argv[1:1] = ["--steps", str(steps)]
    return Command("simulate-val", argv)


def _identify_ni(d: Path, nrbf: int, strict: bool, size: Size) -> Command:
    argv = ["identify", "--traj", str(d / "traj.csv"), "--nrbf", str(nrbf),
            "--center-seed", "0", "--alpha", "1e-5"]
    if strict:
        argv.append("--strict-b")
    argv += ["--max-iters", str(size.max_iters), "--out", str(d / "ni.json")]
    return Command("identify-ni", argv)


def _identify_plain(d: Path, nrbf: int, stem: str = "plain") -> Command:
    return Command(f"identify-{stem}", [
        "identify", "--traj", str(d / "traj.csv"), "--nrbf", str(nrbf), "--center-seed", "0",
        "--mode", "unconstrained", "--out", str(d / f"{stem}.json"),
    ])


def _linearize(d: Path, x0: str, stem: str) -> Command:
    # "=" form: argparse takes "-0.5,0.5" after a bare --x0 for an option
    return Command(f"linearize-{stem}", [
        "linearize", f"--x0={x0}", "--T", "0.01", "--out", str(d / f"{stem}.json"),
    ])


def _validate(d: Path, stems: list[str], grid_points: int, steps: int | None = None) -> Command:
    argv = ["validate", "--models", ",".join(str(d / f"{s}.json") for s in stems),
            "--traj", str(d / "val.csv"), "--ppf", PPF, "--grid", f"1e-2,1e2,{grid_points}",
            "--out-dir", str(d / "out")]
    if steps is not None:
        argv += ["--steps", str(steps)]
    return Command("validate", argv)


def readme_strict(d: Path, seed: int, size: Size = FULL) -> Plan:
    stems = ["ni", "plain", "lin0", "lin5"]
    return Plan(
        commands=[
            _simulate_train(d, seed, size),
            _identify_ni(d, 6, True, size),
            _identify_plain(d, 6),
            _linearize(d, "0,0", "lin0"),
            _linearize(d, "0.5,0.5", "lin5"),
            _simulate_val(d, seed),
            _validate(d, stems, size.grid_points),
        ],
        subject="ni", reference="plain", ni_models=["ni"], linearizations=["lin0", "lin5"],
        n_models=len(stems), grid_points=size.grid_points,
    )


def wide_lift(d: Path, seed: int, size: Size = FULL) -> Plan:
    stems = ["ni", "plain"]
    return Plan(
        commands=[
            _simulate_train(d, seed, size),
            _identify_ni(d, 16, False, size),
            _identify_plain(d, 16),
            _simulate_val(d, seed),
            _validate(d, stems, size.grid_points),
        ],
        subject="ni", reference="plain", ni_models=["ni"],
        n_models=len(stems), grid_points=size.grid_points,
    )


def validate_dense(d: Path, seed: int, size: Size = FULL) -> Plan:
    plain = ["plain6", "plain12", "plain24"]
    lins = ["lin0", "lin5", "linm5"]
    steps = size.dense_val_steps
    return Plan(
        commands=[
            _simulate_train(d, seed, size),
            _simulate_val(d, seed, steps),
            *[_identify_plain(d, int(s[5:]), s) for s in plain],
            _linearize(d, "0,0", "lin0"),
            _linearize(d, "0.5,0.5", "lin5"),
            _linearize(d, "-0.5,0.5", "linm5"),
            _validate(d, plain + lins, size.dense_grid_points, steps),
        ],
        subject="plain6", reference="lin0", linearizations=lins,
        n_models=len(plain) + len(lins), grid_points=size.dense_grid_points,
        step_steps=steps, val_steps=steps,
    )


WORKLOADS = {
    "readme-strict": readme_strict,
    "wide-lift": wide_lift,
    "validate-dense": validate_dense,
}
