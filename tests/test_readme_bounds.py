"""README's bounds table states each MAX_* constant's module and value;
the module must define the constant itself, at module level, with that
value."""
import ast
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
# | `MAX_NAME` (`optbench.module`) | value | applies to |
ROW = re.compile(r"^\| `(MAX_\w+)` \(`(optbench\.\w+)`\) \| ([^|]+?) \|", re.MULTILINE)
ROWS = ROW.findall((REPO / "README.md").read_text(encoding="utf-8"))


def readme_value(text: str) -> int:
    """The integer a cell writes as 100,000, 10^8 or 5 x 10^7."""
    value = 1
    for factor in text.split(" x "):
        base, _, exponent = factor.replace(",", "").partition("^")
        value *= int(base) ** int(exponent or 1)
    return value


def test_the_table_names_the_four_bounds():
    assert [name for name, _, _ in ROWS] == ["MAX_ITERATIONS", "MAX_TRIALS", "MAX_TRIAL_STEPS", "MAX_TRAIN_WORK"]


@pytest.mark.parametrize("name, module, value", ROWS, ids=[name for name, _, _ in ROWS])
def test_each_bound_row_matches_the_module_that_defines_it(name, module, value):
    source = (REPO / "src" / Path(*module.split("."))).with_suffix(".py").read_text(encoding="utf-8")
    defined = {
        target.id
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    assert name in defined, f"{module} does not define {name} at module level"
    assert getattr(importlib.import_module(module), name) == readme_value(value)
