"""Count the code lines of Python modules.

A code line holds at least one token of code. Blank lines, comments and
the docstrings of modules, classes and functions do not count; every line
of any other string, however many lines it spans, does. The count is
reported per module, per top-level definition (decorators included) and
in total.

Usage: python tools/code_lines.py PATH [PATH ...]

A directory stands for the *.py files directly in it.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> tuple[int, dict[str, int]]:
    """The code lines of the module source, and those of each of its
    top-level definitions by name."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    tree = ast.parse(source)
    lines -= _docstring_lines(tree)
    defs = {}
    for node in tree.body:
        if isinstance(node, _DEFS):
            start = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            defs[node.name] = len(lines & set(range(start,
                                                    node.end_lineno + 1)))
    return len(lines), defs


def _modules(paths: list[str]) -> list[Path]:
    found = []
    for path in map(Path, paths):
        found.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Count code lines: no blank, comment or docstring lines.")
    parser.add_argument("paths", nargs="+",
                        help="Python files, or directories of them")
    total = 0
    for module in _modules(parser.parse_args(argv).paths):
        count, defs = code_lines(module.read_text(encoding="utf-8"))
        total += count
        print(f"{module}  {count}")
        for name, n in defs.items():
            print(f"    {name}  {n}")
    print(f"total  {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
