"""Code lines of the eaparse package, module by module.

    python tests/codelines.py
    python tests/codelines.py --src OTHER_CHECKOUT/src

A code line is a line of a module under ``--src``/eaparse (by default the
``src`` beside this file) that holds a token other than a comment or a
docstring: blank lines, comment-only lines and the lines of module, class
and function docstrings do not count. Every line a multi-line token spans
counts. Prints each module's count, then the total. This file is not
collected by pytest.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """(line, column) where each module, class or function docstring begins."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    docstrings = _docstring_starts(source)
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the eaparse package")
    args = ap.parse_args(argv)
    modules = sorted((args.src / "eaparse").glob("*.py"))
    if not modules:
        ap.error(f"no eaparse modules under {args.src}")
    total = 0
    for path in modules:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
