#!/usr/bin/env python3
"""Count the code lines of a package's modules: no docstring, comment or blank line.

    python3 scripts/code_lines.py                 # src/twistalex
    python3 scripts/code_lines.py path/to/pkg other.py

A line counts when the tokenizer puts a token on it other than a comment, a
newline or an indent, and no docstring covers it.  A docstring is the string
statement that opens a module, class or function body (`ast.get_docstring`'s
node); every line from its first to its last is dropped.  A statement over
several lines counts each line it covers that holds a token, so a bracket
closed on a line of its own counts too.  Prints one line per module, then the
total.
"""
from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers covered by the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src" / "twistalex"],
                    help="modules or directories of modules (default: src/twistalex)")
    args = ap.parse_args(argv)
    files = sorted(f for p in args.paths for f in (p.glob("*.py") if p.is_dir() else [p]))
    total = 0
    for f in files:
        n = code_lines(f.read_text())
        total += n
        print(f"{n:6}  {f.name}")
    print(f"{total:6}  total")
    return 0


if __name__ == "__main__":
    import pipe_exit  # the scripts' directory is on sys.path when run as a script

    pipe_exit.run(main)
