"""Tests for the shared tolerance record: a set scale variable fails the import."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MESSAGE = "ValueError: NIKOOPMAN_TOL_SCALE is not supported"


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
    assert MESSAGE in proc.stderr


def test_set_scale_fails_import_and_empty_imports():
    # the variable is not read: a well-formed value fails as a malformed one does
    proc = import_with_scale("2")
    assert proc.returncode != 0
    assert MESSAGE in proc.stderr
    proc = import_with_scale("")
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == 1e-7
