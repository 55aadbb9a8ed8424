"""Smoke test: the experiment scripts and the CLI's module entry point
still run against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/suite_margins.py"],
        ["scripts/mc_vs_exact.py", "--seed", "7", "--sweeps", "1000"],
        ["-m", "potts_gks.cli", "fclass", "--f", "B", "--q", "4", "--M", "48"],
    ],
)
def test_script_exits_zero(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
