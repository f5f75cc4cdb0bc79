"""Smoke tests for the experiment scripts in scripts/: each runs to exit 0
and prints no `[!]` mismatch mark."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ("branched_cover_table.py",),
    ("run_wada_experiment.py",),
    ("check_conjectures.py", "--max-crossings", "4"),
], ids=lambda argv: argv[0].removesuffix(".py"))
def test_script_runs_clean(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert "[!]" not in proc.stdout
