"""No module of the package imports a name it never uses, and every
name a module defines is read somewhere.

The project depends on no linter, so these tests are the check of those
rules.  An import kept only for other code to reach through the
module says so with "# noqa: F401" on its line.  Every module is
checked, __init__.py too: it re-exports by a table, not by importing.
A module-level name counts as read when any file under src/, tests/,
scripts/ or bench/ loads it, takes it as an attribute or imports it.
The benchmark's tracer patches names by module attribute, so one test
enters and leaves its patch: a name it wraps must not be deleted.
Start-up pays only for the command it runs: a fresh interpreter reads
one config of each command, and a table pins the optbench modules each
one loads.  The package root loads a name's module on first use, so
README's library session runs in a fresh interpreter and every name of
__all__ is its submodule's own object.
"""
import ast
import json
import re
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "optbench"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
READERS = ("src", "tests", "scripts", "bench")


def unused_imports(source: str) -> list[str]:
    """The names the source imports and never reads, each as
    "line N: name", except on import lines marked "# noqa: F401"."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    # "import a.b" binds a.
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    # An attribute chain such as np.linalg.norm reads the Name np.
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in read]


def test_the_check_finds_unused_imports_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import (\n"
        "    inf,\n"
        "    pi,  # noqa: F401  (re-exported)\n"
        "    tau,\n"
        ")\n"
        "\n"
        "def f() -> np.ndarray:\n"
        "    return inf\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 7: tau"]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_no_unused_name(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def defined_names(source: str) -> dict[str, int]:
    """The module-level names the source defines, apart from __all__ and
    __getattr__, which Python reads itself, each with the line that
    defines it."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update((leaf.id, node.lineno) for leaf in ast.walk(target) if isinstance(leaf, ast.Name))
    names.pop("__all__", None)
    names.pop("__getattr__", None)
    return names


def read_names(source: str) -> set[str]:
    """The names the source loads, takes as attributes or imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_the_check_finds_names_defined_and_never_read():
    source = (
        "import optbench.optim\n"
        "from optbench.harness import used\n"
        "A, (B, C) = 1, (2, 3)\n"
        "__all__ = ['f']\n"
        "class K: pass\n"
        "def f(): return A + optbench.optim.B\n"
    )
    assert defined_names(source) == {"A": 3, "B": 3, "C": 3, "K": 5, "f": 6}
    assert read_names(source) >= {"A", "B", "optim", "used"}
    dead = set(defined_names(source)) - read_names(source)
    assert dead == {"C", "K", "f"}


def test_every_module_level_name_is_read_somewhere():
    read = set()
    for folder in READERS:
        for path in (REPO / folder).rglob("*.py"):
            read |= read_names(path.read_text(encoding="utf-8"))
    dead = [
        f"{path.stem}.{name} (line {line})"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in defined_names(path.read_text(encoding="utf-8")).items()
        if name not in read
    ]
    assert dead == []


def test_every_name_the_benchmark_tracer_wraps_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    from tracer import Tracer

    import optbench.cli

    write = optbench.cli._write_text
    with Tracer().installed():
        assert optbench.cli._write_text is not write
    assert optbench.cli._write_text is write


def _fresh_python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc


# Imports optbench.cli and reads the config given, or with none imports
# the package root alone, then prints the optbench modules loaded.  Given
# an output directory too, it runs the config's command into it first.
_PROBE = """
import sys
if sys.argv[1:]:
    import optbench.cli
    command, _ = optbench.cli.load_plan(sys.argv[1])
    if sys.argv[2:]:
        assert optbench.cli.main([command, "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
else:
    import optbench
print(*sorted(m for m in sys.modules if m.split(".")[0] == "optbench"))
"""

_FRONT = {"optbench", "optbench.optim", "optbench.config", "optbench.cli"}
_TASKS = _FRONT | {"optbench.objectives", "optbench.harness"}


@pytest.mark.parametrize(
    "command, run, loaded",
    [
        (None, False, {"optbench"}),
        ("train-toy", False, _FRONT | {"optbench.nn"}),
        ("train-toy", True, _FRONT | {"optbench.nn"}),
        ("trial", False, _TASKS),
        ("robustness", False, _TASKS),
        ("scan", False, _TASKS),
        ("tune", False, _TASKS | {"optbench.tuning"}),
    ],
    ids=["import-optbench", "train-toy", "train-toy-run", "trial", "robustness", "scan", "tune"],
)
def test_each_command_loads_only_its_own_modules(command, run, loaded, tmp_path):
    configs = REPO / "configs"
    tuned = configs / "tuned" / "convex2d-sgd-hybrid.json"
    paths = {
        "train-toy": configs / "train-toy" / "sgd-hybrid.json",
        "trial": tmp_path / "trial.json",
        **{c: configs / c / "convex2d-sgd-hybrid.json" for c in ("robustness", "scan", "tune")},
    }
    paths["trial"].write_text(
        json.dumps(
            {
                "schema_version": 1,
                "command": "trial",
                "task": json.loads(tuned.read_text())["task"],
                "optimizer": {"path": str(tuned)},
            }
        )
    )
    args = [] if command is None else [str(paths[command])] + [str(tmp_path / "out")] * run
    assert set(_fresh_python("-c", _PROBE, *args).stdout.split()) == loaded


def test_readme_library_session_runs_and_root_names_are_their_modules_own(tmp_path):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    session = re.search(r"A quick library session:\n\n```python\n(.*?)```", readme, re.S).group(1)
    assert "from optbench import" in session
    assert float(_fresh_python("-c", session, cwd=tmp_path).stdout) >= 0.0

    import optbench

    for name in optbench.__all__:
        obj = getattr(optbench, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("optbench.") and vars(module)[name] is obj, name
    with pytest.raises(AttributeError, match="no_such_name"):
        optbench.no_such_name
