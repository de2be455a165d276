"""Tests for the shared tolerance record and its environment scale."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def import_with_scale(value):
    env = dict(os.environ, NIKOOPMAN_TOL_SCALE=value)
    env["PYTHONPATH"] = os.pathsep.join(p for p in [str(SRC), env.get("PYTHONPATH")] if p)
    return subprocess.run(
        [sys.executable, "-c", "import nikoopman; print(repr(nikoopman.TOL.admm_rel))"],
        env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "0"])
def test_malformed_scale_fails_import(value):
    proc = import_with_scale(value)
    assert proc.returncode != 0
    message = f"NIKOOPMAN_TOL_SCALE must be a positive finite number, got {value!r}"
    assert f"ValueError: {message}" in proc.stderr


def test_scale_multiplies_tolerances():
    proc = import_with_scale("2")
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == 2e-7
