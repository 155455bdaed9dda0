"""Smoke test: every demo script runs to completion without writing to stderr,
and the autodiff tour prints the gradients it promises."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo):
    result = _run(demo)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_autodiff_demo_prints_parameter_gradients():
    result = _run(ROOT / "demos" / "01_autodiff_engine.py")
    assert "d(sum x^2)/dx = [2. 4. 6.]" in result.stdout
