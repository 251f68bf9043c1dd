"""scripts/loc.py gives every line of a module exactly one kind, and its
difference of two counts goes module by module and kind by kind."""
import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("loc", REPO / "scripts" / "loc.py")
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)


def test_each_line_gets_its_kind():
    source = (
        '"""Module docstring.\n'
        "\n"
        '"""\n'
        "import os  # a trailing comment\n"
        "\n"
        "# a comment line\n"
        "def f():\n"
        "    '''One line.'''\n"
        "    text = '''\n"
        "\n"
        "'''\n"
        "    return text\n"
    )
    assert loc.line_kinds(source) == [
        "docstring", "docstring", "docstring", "code", "blank", "comment",
        "code", "docstring", "code", "code", "code", "code",
    ]  # fmt: skip
    assert loc.count(source) == {"code": 6, "docstring": 4, "comment": 1, "blank": 1}


def test_the_difference_counts_each_module_and_kind_and_a_missing_module_as_empty():
    before = loc.count_all({"a.py": "x = 1\n\n# note\n", "gone.py": '"""Doc."""\n'})
    after = loc.count_all({"a.py": "x = 1\ny = 2\n", "new.py": "z = 3\n"})
    assert loc.difference(before, after) == {
        "a.py": {"code": 1, "docstring": 0, "comment": -1, "blank": -1},
        "gone.py": {"code": 0, "docstring": -1, "comment": 0, "blank": 0},
        "new.py": {"code": 1, "docstring": 0, "comment": 0, "blank": 0},
    }


@pytest.mark.parametrize("path", sorted((REPO / "src").rglob("*.py")), ids=lambda p: p.name)
def test_the_four_counts_sum_to_the_line_count(path):
    source = path.read_text(encoding="utf-8")
    assert sum(loc.count(source).values()) == len(source.splitlines())
