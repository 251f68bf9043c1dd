"""Count the calls a workload makes, function by function.

Runs each benchmark workload's bundled configs, the command lists of
bench/workloads.py's WORKLOADS (tune, sample-scan and train-toy), through
the CLI in this process: once to warm up, so that one-time work is left
out, then once under cProfile.  Records the call count of every function
defined under src/optbench, keyed by module and qualified name; a
generator expression or lambda is keyed under the function that holds
it, and several in one function add up.  Not counted: list, set and dict
comprehensions, which Python 3.12 and later run inline (PEP 709), and
functions that a dataclass or named tuple generates from a string.

The ledger, tests/data/costs.json, also records the Python and numpy
versions it was made with.  Counts are exact: a change that adds or
removes work on the hot path moves them, while wall time on a shared
host can hide it.

Usage: python3 scripts/costs.py [--check]

Prints each workload's total count of package calls, and of numpy's own
Python-level calls (functions defined under numpy's package directory),
which are reported only: they are neither stored nor checked, so the
ledger stays comparable across numpy versions.  --check counts
again and compares with the stored ledger instead of writing it; it
prints each function whose count moved with both counts, and each
workload's total beside the stored one, and exits 1 if any count moved.
"""
from __future__ import annotations

import argparse
import ast
import cProfile
import json
import platform
import pstats
import sys
import tempfile
from pathlib import Path

import numpy as np

import optbench
from optbench.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "data" / "costs.json"
PACKAGE = Path(optbench.__file__).resolve().parent
NUMPY = Path(np.__file__).resolve().parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS as COMMANDS  # noqa: E402

WORKLOADS = {
    workload: [ROOT / "configs" / command / f"{name}.json" for command, name in commands]
    for workload, commands in COMMANDS.items()
}
INLINED = ("<listcomp>", "<setcomp>", "<dictcomp>")


def _functions(path: Path) -> list[tuple[int, int, str]]:
    """(first line, last line, qualified name) of every function of a
    module, outer before inner; a decorated function starts at its first
    decorator, as its code object does."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found.append((first, child.end_lineno, name))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def _key(path: Path, line: int, name: str, functions: list) -> str:
    module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
    if not name.startswith("<"):
        return module + "." + next(q for first, _, q in functions if first == line)
    holders = [q for first, last, q in functions if first <= line <= last]
    return ".".join([module, *holders[-1:], name])


def count(workload: str) -> tuple[dict[str, int], int]:
    """The calls of each package function in one warm pass of the workload,
    and the total of numpy's own Python-level calls in it."""
    profiler = cProfile.Profile()
    with tempfile.TemporaryDirectory(prefix="optbench-costs-") as tmp:
        for run in ("warm", "counted"):
            for config in WORKLOADS[workload]:
                argv = [config.parent.name, "--config", str(config), "--out", f"{tmp}/{run}/{config.stem}"]
                if run == "counted":
                    profiler.enable()
                code = cli_main(argv)
                profiler.disable()
                if code != 0:
                    raise SystemExit(f"{' '.join(argv)} failed with exit code {code}")
    calls: dict[str, int] = {}
    numpy_calls = 0
    modules: dict[Path, list] = {}
    for (filename, line, name), (_, n_calls, *_) in pstats.Stats(profiler).stats.items():
        path = Path(filename).resolve()
        if PACKAGE in path.parents and name not in INLINED:
            key = _key(path, line, name, modules.setdefault(path, _functions(path)))
            calls[key] = calls.get(key, 0) + n_calls
        elif NUMPY in path.parents:
            numpy_calls += n_calls
    return dict(sorted(calls.items())), numpy_calls


def ledger() -> tuple[dict, dict[str, int]]:
    """The ledger of package calls, and each workload's numpy call total."""
    counts = {workload: count(workload) for workload in WORKLOADS}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calls": {workload: calls for workload, (calls, _) in counts.items()},
    }, {workload: numpy_calls for workload, (_, numpy_calls) in counts.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true", help="compare fresh counts with the stored ledger instead of writing it"
    )
    args = parser.parse_args()
    fresh, numpy_calls = ledger()
    stored = json.loads(LEDGER.read_text()) if args.check else None
    for workload, calls in fresh["calls"].items():
        was = f" (stored: {sum(stored['calls'].get(workload, {}).values()):,})" if stored else ""
        print(
            f"{workload}: {sum(calls.values()):,} package calls{was}, {numpy_calls[workload]:,} numpy calls",
            file=sys.stderr,
        )
    if not args.check:
        LEDGER.parent.mkdir(parents=True, exist_ok=True)
        LEDGER.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
        print(f"wrote the call counts of {', '.join(WORKLOADS)} to {LEDGER}", file=sys.stderr)
        return 0
    if (stored["python"], stored["numpy"]) != (fresh["python"], fresh["numpy"]):
        print(
            f"note: the ledger was made with Python {stored['python']} and numpy {stored['numpy']},"
            f" this run uses {fresh['python']} and {fresh['numpy']}",
            file=sys.stderr,
        )
    moved = 0
    for workload in WORKLOADS:
        was, now = stored["calls"].get(workload, {}), fresh["calls"][workload]
        for name in sorted(was.keys() | now.keys()):
            if was.get(name, 0) != now.get(name, 0):
                print(f"moved: {workload} {name}: {was.get(name, 0)} -> {now.get(name, 0)}", file=sys.stderr)
                moved += 1
    print(f"{moved} call count(s) differ from the stored ledger", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
