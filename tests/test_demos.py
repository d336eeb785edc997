"""Smoke test: every script in demos/ runs to completion and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import modelvault

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(modelvault.__file__).resolve().parent.parent


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
