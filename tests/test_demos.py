"""The demo scripts run, or at least import only names the package has.

Demos 01 and 02 run as subprocesses.  Demos 03-05 fit the README model and
take several seconds each, so only their imports from ``nikoopman`` are
checked, by parsing the scripts.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
