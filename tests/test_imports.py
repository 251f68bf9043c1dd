"""No module of the package imports a name it never uses.

The project depends on no linter, so this test is the check of that
rule.  An import kept only for other code to reach through the
module says so with "# noqa: F401" on its line.  __init__.py imports to
re-export and is not checked.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "optbench"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
