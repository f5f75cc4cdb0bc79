"""Smoke tests for the experiment scripts in scripts/: each runs to exit 0,
prints no `[!]` mismatch mark, and exits without a traceback when its
output pipe closes early."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


SCRIPTS = pytest.mark.parametrize("argv", [
    ("branched_cover_table.py",),
    ("run_wada_experiment.py",),
    ("check_conjectures.py", "--max-crossings", "4"),
], ids=lambda argv: argv[0].removesuffix(".py"))


def _command(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONUNBUFFERED"] = "1"  # each print reaches the pipe at once
    return [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]], env


@SCRIPTS
def test_script_runs_clean(argv):
    cmd, env = _command(argv)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert "[!]" not in proc.stdout


@SCRIPTS
def test_script_exits_quietly_when_its_pipe_closes(argv):
    # as `script | head -1`: the reader takes one line and goes away
    cmd, env = _command(argv)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().strip()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) in (0, 1)
    assert "Traceback" not in err, err


def test_code_lines_drops_docstrings_comments_and_blanks(tmp_path):
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    snippet = '''"""A module docstring
over two lines."""
import os  # a trailing comment counts as code


# a comment line
class A:
    """One line."""

    def f(self, x):
        """Two
        lines."""
        text = """a string that is not a docstring
        still counts"""
        return f(x,
                 1,
        )
'''
    # import, class, def, text (2 lines), return (3 lines)
    assert code_lines.code_lines(snippet) == 8
    (tmp_path / "a.py").write_text(snippet)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    cmd, env = _command(("code_lines.py", str(tmp_path)))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["8", "a.py", "1", "b.py", "9", "total"]
