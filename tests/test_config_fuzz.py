"""Any JSON document either loads as a plan or raises ConfigError, in
bounded time; and bundled configs survive a write/read round trip."""
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from optbench.config import (
    COMMANDS,
    ConfigError,
    load_plan,
    parse_distribution,
    parse_optimizer_spec,
    parse_task,
    to_json,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RUNNABLE = sorted(p for g in ("tune", "robustness", "scan", "train-toy") for p in (CONFIGS / g).glob("*.json"))


def _absolute_refs(path: Path) -> dict:
    doc = json.loads(path.read_text())
    ref = doc.get("optimizer", {}).get("path")
    if ref is not None:
        doc["optimizer"]["path"] = str((path.parent / ref).resolve())
    return doc


BUNDLED = [_absolute_refs(p) for p in RUNNABLE]

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=12)
    | st.sampled_from(["tune", "trial", "ema", "hybrid", "convex2d", "relu", "sum"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=10), inner, max_size=4),
    max_leaves=12,
)


def _field_paths(node, prefix=()):
    """Every key and list index path inside a document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*prefix, key)
        yield from _field_paths(child, (*prefix, key))


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


def _loads_or_rejects(config_file: Path, doc) -> None:
    config_file.write_text(json.dumps(doc))
    started = time.perf_counter()
    try:
        load_plan(config_file)
    except ConfigError:
        pass
    assert time.perf_counter() - started < 1.0


# Every top-level key some command reads, so that drawn documents reach
# the field tables of the plans.
PLAN_KEYS = sorted(
    {key for doc in BUNDLED for key in doc} - {"schema_version", "command"}
    | {"grids", "mix", "x0_range", "dataset", "hidden"}
)


@settings(max_examples=100, deadline=None)
@given(
    doc=JSON_VALUES
    | st.fixed_dictionaries(
        {"schema_version": st.just(1), "command": st.sampled_from(COMMANDS)},
        optional={key: JSON_VALUES for key in PLAN_KEYS},
    )
)
def test_any_json_document_loads_or_raises_config_error(config_file, doc):
    _loads_or_rejects(config_file, doc)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bundled_config_with_one_field_replaced(config_file, data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(BUNDLED))))
    *parents, last = data.draw(st.sampled_from(list(_field_paths(doc))))
    node = doc
    for key in parents:
        node = node[key]
    node[last] = data.draw(JSON_VALUES)
    _loads_or_rejects(config_file, doc)


def _through_json(doc):
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize("config", RUNNABLE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_bundled_objects_round_trip(config):
    _, plan = load_plan(config)
    for attr, read in (
        ("spec", parse_optimizer_spec),
        ("optimizer", parse_optimizer_spec),
        ("task", parse_task),
        ("distribution", parse_distribution),
    ):
        if hasattr(plan, attr):
            value = getattr(plan, attr)
            assert read(_through_json(to_json(value)), attr) == value
