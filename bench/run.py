"""nikoopman benchmark: drives the real CLI in-process and reads its artifacts.

Usage (from the repository root):

    python3 bench/run.py --workload readme-strict --seed 0 --seconds 15 --trace 0

``--trace 0`` runs the workload's pipeline untraced, repeatedly until
``--seconds`` have passed, then repeats its short commands for a few more
seconds, and reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced pipelines (see tracer.py) and adds the kernel
microbenchmarks; it reports the per-layer metrics.  ``--smoke`` shrinks every
size for a quick check.  Command times are scaled to a reference machine
speed by an in-process sampler (see speed.py); the raw wall times are
printed beside them.  A ``--trace 0`` run is pinned to one CPU; a
``--trace 1`` run is not, and reports the untraced pipelines' unscaled wall
and CPU times.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Everything the run writes goes under ``.bench_out/`` in the
repository root, including ``result.json`` with provenance, every command's
raw and scaled time and, for traced runs, the aggregated spans.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads; recorded with every result
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
import kernels  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_SAMPLES = 5
CHEAP_S = 0.75  # commands shorter than this are repeated after the pipelines ...
ROUNDS_S = 8.0  # ... for this long
OK_EXIT = (0, 4)  # 4 = solver stopped short; counted through the stage flags


@dataclass
class CommandRun:
    label: str
    name: str
    t0: float
    t1: float
    exit: int | None
    ok: bool
    log: str = ""
    cpu0: float = 0.0  # process CPU clock at t0 and t1
    cpu1: float = 0.0
    wall_s: float = 0.0  # wall time minus the speed sampler's own time
    s: float = 0.0  # wall_s at the reference machine speed


@dataclass
class PipelineResult:
    commands: list[CommandRun] = field(default_factory=list)
    checks: list[checks.Check] = field(default_factory=list)
    stages: list[tuple[str, bool, int]] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    repeat_failures: set[str] = field(default_factory=set)  # labels failing in repeat rounds

    @property
    def total_s(self) -> float:
        return sum(c.s for c in self.commands)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    @property
    def cpu_s(self) -> float:
        """Process CPU time, less the sampler's (which is CPU-bound wall time)."""
        return sum(c.cpu1 - c.cpu0 - (c.t1 - c.t0 - c.wall_s) for c in self.commands)

    @property
    def attempted(self) -> int:
        return len(self.commands) + len(self.stages)

    @property
    def hard_failures(self) -> int:
        """Commands that raised, exited with an error, or failed a check.

        A repeat round re-times this pipeline's short commands on its inputs,
        so a command failing there fails its op here.
        """
        bad = {c.label for c in self.commands if not c.ok}
        bad |= {c.command for c in self.checks if not c.ok}
        return len(bad | self.repeat_failures)

    @property
    def failed(self) -> int:
        """Hard failures plus solver stages that stopped short."""
        return self.hard_failures + sum(1 for _, ok, _ in self.stages if not ok)


def run_commands(cli, commands: list[workloads.Command]) -> list[CommandRun]:
    out = []
    for cmd in commands:
        log = io.StringIO()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = cli.main(cmd.argv)
        except Exception:
            code = None
            log.write(traceback.format_exc())
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        ok = code in OK_EXIT
        out.append(CommandRun(cmd.label, cmd.name, t0, t1, code, ok, "" if ok else log.getvalue(),
                              cpu0, cpu1))
        if not ok:
            print(f"command {cmd.label} failed (exit {code}): {log.getvalue()}", file=sys.stderr)
    return out


def run_pipeline(cli, plan: workloads.Plan, d: Path) -> PipelineResult:
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    res = PipelineResult(commands=run_commands(cli, plan.commands))
    if all(c.ok for c in res.commands):
        res.checks, res.stages, res.quality = verify(plan, d)
    return res


def verify(plan: workloads.Plan, d: Path):
    report = checks.load_json(d / "out" / "report.json")
    found = checks.report_checks(report, plan, d / "out")
    if not found[0].ok:  # entries missing or errored: no figures to check or report
        return found, checks.stages(d, plan), {}
    for stem in plan.ni_models:
        found += checks.certificate_checks(d, stem, plan, report)
    return found, checks.stages(d, plan), checks.quality(report, plan, d)


def op_totals(pipes: list[PipelineResult]) -> tuple[int, int, int]:
    """(ops attempted, hard failures, unconverged stages) over the pipelines."""
    attempted = sum(p.attempted for p in pipes)
    hard = sum(p.hard_failures for p in pipes)
    return attempted, hard, sum(p.failed for p in pipes) - hard


def measure_setup() -> tuple[float, float]:
    """Start and end of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import nikoopman.cli"], env=env, check=True, cwd=ROOT)
    return t0, time.perf_counter()


def provenance(seed: int) -> dict:
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "load": "closed loop, 1 client, one CLI command at a time",
    }


def command_samples(pipes: list[PipelineResult], rounds: list[list[CommandRun]], attr: str = "s"):
    """Times of each command, by label, from full pipelines and repeat rounds."""
    samples: dict[str, list[float]] = {}
    for runs in [p.commands for p in pipes] + rounds:
        for c in runs:
            samples.setdefault(c.label, []).append(getattr(c, attr))
    return samples


def end_to_end(pipes: list[PipelineResult], rounds: list[list[CommandRun]],
               setup: list[float]) -> dict[str, tuple[float, str]]:
    samples = command_samples(pipes, rounds)
    names = {c.label: c.name for c in pipes[0].commands}

    def per_command(name):
        # the pipeline runs each command once: sum the per-command medians
        return sum(statistics.median(v) for k, v in samples.items() if names[k] == name)

    attempted, hard, stage_fail = op_totals(pipes)
    good = [p for p in pipes if p.quality]
    out = {
        "setup_s": (statistics.median(setup), "s"),
        "pipeline_s": (statistics.median(p.total_s for p in pipes), "s"),
        "identify_s": (per_command("identify"), "s"),
        "validate_s": (per_command("validate"), "s"),
        "simulate_s": (per_command("simulate"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((attempted - hard - stage_fail) / attempted, "1"),
    }
    for key in ("val_mse", "mse_ratio", "fit_objective"):
        if good:  # else every pipeline failed a command or check: correct is false
            out[key] = (statistics.median(p.quality[key] for p in good), "1")
    return out


def per_layer(tr: Tracer, traced: PipelineResult,
              untraced: list[PipelineResult]) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tr.layer_self_s(layer), "s")
    for cmd in ("simulate", "identify", "linearize", "validate"):
        out[f"cli.{cmd}.self_s"] = (tr.self_s(f"cli.cmd_{cmd}"), "s")
    for stage in ("identify.solve_ni", "identify.complete_certificate"):
        s, iters = tr.busy_s(stage), tr.counts[f"{stage}.iterations"]
        out[f"{stage}.s"] = (s, "s")
        out[f"{stage}.iterations"] = (iters, "count")
        out[f"{stage}.us_per_iter"] = (s / iters * 1e6 if iters else 0.0, "us")
        out[f"{stage}.converged"] = (tr.counts[f"{stage}.converged"], "count")
    out["identify.complete_certificate.b_fit_rel"] = (
        tr.counts["identify.complete_certificate.b_fit_rel"], "1")
    out["identify.edmd_fit.s"] = (tr.busy_s("identify.edmd_fit"), "s")
    out["identify.simulate_lifted.s"] = (tr.busy_s("identify.simulate_lifted"), "s")
    out["identify.simulate_lifted.calls"] = (tr.calls("identify.simulate_lifted"), "count")
    for k in ("psd_project", "sym_eig", "solve", "csolve"):
        name = f"matcore.{k}"
        s, calls = tr.busy_s(name), tr.calls(name)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.s"] = (s, "s")
        out[f"{name}.us_per_call"] = (s / calls * 1e6 if calls else 0.0, "us")
    for f in ("freq_response", "ni_frequency_check", "positive_feedback", "to_continuous",
              "bode_rows", "nyquist_rows"):
        out[f"nicore.{f}.s"] = (tr.busy_s(f"nicore.{f}"), "s")
    out["nicore.freq_response.points"] = (tr.counts["nicore.freq_response.points"], "count")
    for f in ("compare_models", "evaluate_model", "step_response", "simulate_continuous",
              "closed_loop_verdict"):
        out[f"analysis.{f}.s"] = (tr.busy_s(f"analysis.{f}"), "s")
    steps = tr.counts["dynamics.simulate.steps"]
    sim_s = tr.busy_s("dynamics.simulate")
    out["dynamics.simulate.s"] = (sim_s, "s")
    out["dynamics.simulate.steps"] = (steps, "count")
    out["dynamics.simulate.us_per_step"] = (sim_s / steps * 1e6 if steps else 0.0, "us")
    for meth in ("save_csv", "load_csv"):
        name = f"dynamics.TrajectoryData.{meth}"
        out[f"{name}.s"] = (tr.busy_s(name), "s")
    for f in ("make_dictionary", "build_matrices"):
        out[f"lifting.{f}.s"] = (tr.busy_s(f"lifting.{f}"), "s")
    # span times are raw; put them on the reference speed of the traced pipeline
    elapsed = sum(c.t1 - c.t0 for c in traced.commands)
    factor = traced.total_s / elapsed
    out = {k: (v * factor if u in ("s", "us") else v, u) for k, (v, u) in out.items()}
    out["trace.pipeline_s"] = (traced.total_s, "s")
    out["trace.overhead_frac"] = (traced.total_s / statistics.median(p.total_s for p in untraced) - 1.0, "1")
    out["trace.self_sum_frac"] = (sum(tr.layer_self_s(layer) for layer in LAYERS) / elapsed, "1")
    # Unscaled and on every CPU: a change that takes CPU from the timed thread
    # (a busy helper thread) slows the calibration too and is scaled away in
    # the gated times, and a pinned run cannot show a gain from threads.
    out["wall.pipeline_s"] = (statistics.median(p.wall_s for p in untraced), "s")
    out["cpu.pipeline_s"] = (statistics.median(p.cpu_s for p in untraced), "s")
    return out


def import_package():
    if not (SRC / "nikoopman" / "cli.py").is_file():
        raise SystemExit(f"error: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import nikoopman.cli as cli
    import nikoopman.matcore as matcore

    if Path(cli.__file__).resolve().parent != (SRC / "nikoopman").resolve():
        raise SystemExit(f"error: imported {cli.__file__}, not the package under {SRC}")
    return cli, matcore


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for a quick check")
    args = ap.parse_args(argv)

    cli, matcore = import_package()
    if args.trace == 0:
        # One CPU for the run and its set-up children, so that the speed
        # sampler measures the CPU the timed work runs on.  Threads the package
        # starts share that CPU too: the traced run, unpinned, reports the wall
        # and CPU time that shows them (wall.pipeline_s, cpu.pipeline_s).
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    size = workloads.TINY if args.smoke else workloads.FULL
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    work = run_dir / "work"
    plan = workloads.WORKLOADS[args.workload](work, args.seed, size)

    prov = provenance(args.seed)
    pipes: list[PipelineResult] = []
    rounds: list[list[CommandRun]] = []
    setup_spans: list[tuple[float, float]] = []
    tracers: list[Tracer] = []
    t_start = time.perf_counter()
    with SpeedSampler() as sampler:
        if args.trace == 0:
            while not pipes or time.perf_counter() - t_start < args.seconds:
                pipes.append(run_pipeline(cli, plan, work))
            # Repeat the short commands on the same inputs, interleaved with
            # the set-up samples, so their medians draw on many samples.
            cheap = [c for c, r in zip(plan.commands, pipes[-1].commands) if r.t1 - r.t0 < CHEAP_S]
            if not all(p.quality for p in pipes):
                cheap = []
            t_rounds = time.perf_counter()
            while len(setup_spans) < SETUP_SAMPLES or (cheap and time.perf_counter() - t_rounds < ROUNDS_S):
                if len(setup_spans) < SETUP_SAMPLES:
                    # the child shares the pinned CPU: calibrating now would
                    # time the contention, so its speed comes from neighbours
                    sampler.pause()
                    setup_spans.append(measure_setup())
                    sampler.resume()
                if cheap:
                    rounds.append(run_commands(cli, cheap))
            pipes[-1].repeat_failures = {c.label for r in rounds for c in r if not c.ok}
        else:
            while not pipes or time.perf_counter() - t_start < args.seconds:
                pipes.append(run_pipeline(cli, plan, work))
                with Tracer() as tr:
                    pipes.append(run_pipeline(cli, plan, work))
                tracers.append(tr)
            kernel_cases = kernels.measure(matcore, args.seed,
                                           0.05 if args.smoke else kernels.KERNEL_S)
    for c in [c for p in pipes for c in p.commands] + [c for r in rounds for c in r]:
        c.wall_s, c.s = sampler.scale(c.t0, c.t1)
    setup = [sampler.scale(t0, t1)[1] for t0, t1 in setup_spans]

    if args.trace == 0:
        metrics = end_to_end(pipes, rounds, setup)
        extra = {}
    else:
        traced = pipes[1::2]
        mid = sorted(range(len(traced)), key=lambda i: traced[i].total_s)[len(traced) // 2]
        metrics = per_layer(tracers[mid], traced[mid], pipes[0::2])
        metrics.update(kernels.metrics(kernel_cases, sampler.scale))
        extra = {"spans": tracers[mid].to_json()}

    failed_checks = [c for p in pipes for c in p.checks if not c.ok]
    attempted, hard, stage_fail = op_totals(pipes)
    correct = not failed_checks and hard == 0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"pipelines {len(pipes)}  short-command rounds {len(rounds)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for c in failed_checks + pipes[-1].checks:
        print(f"check {c.name:<22} {'ok ' if c.ok else 'FAIL'} {c.detail}")
    for name, ok, iterations in pipes[-1].stages:
        verdict = "converged" if ok else "NOT CONVERGED (counts as failed op)"
        print(f"stage {name:<22} {iterations} iterations, {verdict}")
    for key, value in pipes[-1].quality.items():
        print(f"quality {key:<14} {value:.10g}")
    print(f"ops attempted {attempted}  failed {hard + stage_fail} "
          f"(hard {hard}, unconverged stages {stage_fail})  "
          f"failed_frac {(hard + stage_fail) / attempted:.4f}")
    speeds = [c.s / c.wall_s for p in pipes for c in p.commands if c.wall_s > 0]
    print(f"speed sampler: {len(sampler.durations)} samples, reference-time / wall-time "
          f"median {statistics.median(speeds):.3f} over commands")
    if args.trace == 0:
        raw = command_samples(pipes, rounds, "wall_s")
        for label, values in command_samples(pipes, rounds).items():
            print(f"command {label:<18} median {statistics.median(values):.6g} s  "
                  f"max {max(values):.6g} s  n={len(values)}  "
                  f"(wall median {statistics.median(raw[label]):.6g} s)")
        spread = {"pipeline_s": [p.total_s for p in pipes], "setup_s": setup}
        for name, (value, unit) in metrics.items():
            if name in spread:
                print(f"metric {name:<14} median {statistics.median(spread[name]):.6g} {unit}  "
                      f"max {max(spread[name]):.6g} {unit}  n={len(spread[name])}")
            else:
                print(f"metric {name:<14} {value:.6g} {unit}")
        print(f"wall pipeline_s median {statistics.median(p.wall_s for p in pipes):.6g} s")
    else:
        for name, (value, unit) in metrics.items():
            print(f"metric {name:<44} {value:.6g} {unit}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": hard,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(run_dir / "result.json", "w") as fh:
        json.dump({**result, "provenance": prov, "stage_failures": stage_fail,
                   "setup_samples": setup,
                   "rounds": [[asdict(c) for c in r] for r in rounds],
                   "pipelines": [{"total_s": p.total_s, "wall_s": p.wall_s,
                                  "commands": [asdict(c) for c in p.commands],
                                  "checks": [asdict(c) for c in p.checks],
                                  "stages": p.stages, "quality": p.quality}
                                 for p in pipes],
                   **extra}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
