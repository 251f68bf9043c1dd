"""Count the lines of each module of the package by kind.

Every line of a module is one of four kinds:

  code       holds a token of a statement, or lies inside a multi-line
             string that is not a docstring;
  docstring  lies inside a module, class or function docstring, blank
             lines within it included;
  comment    holds only a comment;
  blank      holds nothing else.

Tokens come from tokenize and docstrings from ast, so the four counts of
a module sum to its line count.

Usage: python3 scripts/loc.py [DIR]

DIR defaults to src/ of this repository; every *.py file under it is
counted, and the last row is the total.
"""
from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")
# Tokens that mark structure, not content: they make no line code.
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def line_kinds(source: str) -> list[str]:
    """The kind of each line of source, in order."""
    kinds = ["blank"] * len(source.splitlines())
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            # A comment after code on its line leaves that line code.
            if kinds[token.start[0] - 1] == "blank":
                kinds[token.start[0] - 1] = "comment"
        elif token.type not in _LAYOUT:
            kinds[token.start[0] - 1 : token.end[0]] = ["code"] * (token.end[0] - token.start[0] + 1)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            kinds[first.lineno - 1 : first.end_lineno] = ["docstring"] * (first.end_lineno - first.lineno + 1)
    return kinds


def count(source: str) -> dict[str, int]:
    """The number of lines of each kind in source."""
    kinds = line_kinds(source)
    return {kind: kinds.count(kind) for kind in KINDS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", nargs="?", type=Path, default=ROOT / "src", help="directory to count (default: src/)")
    args = parser.parse_args()
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<32}" + "".join(f"{kind:>10}" for kind in (*KINDS, "total")))
    for path in sorted(args.dir.rglob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        row = [counts[kind] for kind in KINDS]
        print(f"{path.relative_to(args.dir).as_posix():<32}" + "".join(f"{n:>10}" for n in (*row, sum(row))))
    row = [total[kind] for kind in KINDS]
    print(f"{'total':<32}" + "".join(f"{n:>10}" for n in (*row, sum(row))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
