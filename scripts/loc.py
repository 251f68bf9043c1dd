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

Usage: python3 scripts/loc.py [DIR] [--against REV]

DIR defaults to src/ of this repository; every *.py file under it is
counted, and the last row is the total.  --against REV first counts the
*.py files under DIR as git revision REV holds them (read through git
show), then as they are now, then prints the difference, now minus REV;
a module on one side only counts as empty on the other.  DIR must then
lie inside this repository.
"""
from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


Counts = dict[str, dict[str, int]]  # module -> kind -> lines


def count_all(sources: dict[str, str]) -> Counts:
    """count() of every module's source, in module order."""
    return {name: count(source) for name, source in sorted(sources.items())}


def difference(before: Counts, after: Counts) -> Counts:
    """after minus before, for each module and kind; a module that only
    one side has counts as empty on the other."""
    empty = dict.fromkeys(KINDS, 0)
    return {
        name: {kind: after.get(name, empty)[kind] - before.get(name, empty)[kind] for kind in KINDS}
        for name in sorted(before.keys() | after.keys())
    }


def at_revision(rev: str, directory: Path) -> dict[str, str]:
    """The source of every *.py file under directory at git revision rev,
    keyed by its path relative to directory."""
    prefix = directory.resolve().relative_to(ROOT).as_posix()

    def git(*args: str) -> str:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True)
        return done.stdout

    names = git("ls-tree", "-r", "--name-only", rev, "--", prefix).splitlines()
    return {name[len(prefix) + 1 :]: git("show", f"{rev}:{name}") for name in names if name.endswith(".py")}


def print_table(counts: Counts, sign: str = "") -> None:
    """One row per module, then the total; sign "+" prints every count
    with its sign."""
    print(f"{'module':<32}" + "".join(f"{kind:>10}" for kind in (*KINDS, "total")))
    total = {kind: sum(c[kind] for c in counts.values()) for kind in KINDS}
    for name, row in [*counts.items(), ("total", total)]:
        cells = [row[kind] for kind in KINDS]
        print(f"{name:<32}" + "".join(f"{n:>{sign}10}" for n in (*cells, sum(cells))))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", nargs="?", type=Path, default=ROOT / "src", help="directory to count (default: src/)")
    parser.add_argument("--against", metavar="REV", help="also count the files at REV, then the difference")
    args = parser.parse_args()
    files = args.dir.rglob("*.py")
    after = count_all({p.relative_to(args.dir).as_posix(): p.read_text(encoding="utf-8") for p in files})
    if args.against is None:
        print_table(after)
        return 0
    before = count_all(at_revision(args.against, args.dir))
    print(f"at {args.against}")
    print_table(before)
    print("\nnow")
    print_table(after)
    print(f"\nnow minus {args.against}")
    print_table(difference(before, after), sign="+")
    return 0


if __name__ == "__main__":
    sys.exit(main())
