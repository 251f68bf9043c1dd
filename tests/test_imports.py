"""No module of the package imports a name it never uses, and every
name a module defines is read somewhere.

The project depends on no linter, so these tests are the check of those
rules.  An import kept only for other code to reach through the
module says so with "# noqa: F401" on its line.  __init__.py imports to
re-export and is not checked for unused imports.  A module-level name
counts as read when any file under src/, tests/, scripts/ or bench/
loads it, takes it as an attribute or imports it.  The benchmark's
tracer patches names by module attribute, so one test enters and
leaves its patch: a name it wraps must not be deleted.  Start-up pays
only for the command it runs: the last test reads configs in a fresh
interpreter and checks that only a train-toy config loads optbench.nn.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "optbench"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
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
    """The module-level names the source defines, apart from __all__,
    each with the line that defines it."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update((leaf.id, node.lineno) for leaf in ast.walk(target) if isinstance(leaf, ast.Name))
    names.pop("__all__", None)
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


# Prints, after each config it reads, whether optbench.nn is loaded.
_NN_PROBE = """
import sys
import optbench.cli
for path in sys.argv[1:]:
    optbench.cli.load_plan(path)
    print(path, "optbench.nn" in sys.modules)
"""


def test_only_a_train_toy_config_loads_the_nn_module(tmp_path):
    configs = REPO / "configs"
    tuned = configs / "tuned" / "convex2d-sgd-hybrid.json"
    trial = tmp_path / "trial.json"
    trial.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "command": "trial",
                "task": json.loads(tuned.read_text())["task"],
                "optimizer": {"path": str(tuned)},
            }
        )
    )
    paths = [
        configs / "tune" / "convex2d-sgd-hybrid.json",
        configs / "robustness" / "convex2d-sgd-hybrid.json",
        configs / "scan" / "convex2d-sgd-hybrid.json",
        trial,
        configs / "train-toy" / "sgd-hybrid.json",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NN_PROBE, *map(str, paths)],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = [line.rsplit(" ", 1)[1] for line in proc.stdout.splitlines()]
    assert loaded == ["False", "False", "False", "False", "True"], proc.stdout
