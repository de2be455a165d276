"""The demo scripts run, or at least import only names the package has.

Demos 01 and 02 run as subprocesses.  Demos 03-05 fit the README model and
take several seconds each, so only their imports from ``nikoopman`` are
checked, by parsing the scripts.  The README's command lines are parsed by
the CLI's argument parser, without running them.
"""

import ast
import importlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from nikoopman import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", ["01_msd_energy_and_dissipation.py",
                                  "02_lifting_and_least_squares.py"])
def test_fast_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(ROOT / "src"), env.get("PYTHONPATH")] if p
    )
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ["03_ni_constrained_fit.py", "04_frequency_checks.py",
                                  "05_ppf_closed_loop.py"])
def test_slow_demo_imports_exist(name):
    tree = ast.parse((DEMOS / name).read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.startswith("nikoopman")]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def _readme_commands() -> list[str]:
    """Every ``nikoopman ...`` line of the README, joined across trailing backslashes."""
    commands, pending = [], None
    for line in (ROOT / "README.md").read_text().splitlines():
        line = line.strip()
        if pending is not None:
            pending += " " + line
        elif line.startswith("nikoopman "):
            pending = line
        else:
            continue
        if pending.endswith("\\"):
            pending = pending[:-1]
        else:
            commands.append(pending)
            pending = None
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {shlex.split(c)[1] for c in commands} == {"simulate", "identify", "linearize",
                                                     "validate"}
    parser = cli.build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
