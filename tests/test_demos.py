"""Smoke test: the demo scripts run to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("online_to_batch.py", []),
    ("run_forecaster.py", ["300"]),
    ("rounding_tradeoff.py", []),
])
def test_demo_runs(script, args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)]
                          + args, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
