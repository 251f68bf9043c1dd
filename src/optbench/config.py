"""JSON config schema shared by all CLI commands.

Every config carries schema_version and command fields.  Each config
object has one field table: the three optimizer rules, the task, a
sampler, the evaluation distribution, a grid axis and the five command
plans.  A Table lists the object's Fields and the callable that builds
the object.  A Field names a JSON key, the reader that checks its value's
type and any bound the CLI adds, and whether the key may be left out;
an optional key that is absent or null is left to the builder's default.

One reader, Table.read, checks a JSON object against its table and
builds the object.  A range that a domain type checks on construction
(UpdateRule, TaskConfig, Sampler, GridSpec) is not stated again here:
its ConfigError names the field under the object, and Table.read puts
the object's dotted path in front; any other ValueError is reported at
the object's path.  One writer, to_json, serializes objects from the
same tables.  The fields each optimizer rule kind carries come from the
rules' FIELDS tables in optim.

load_plan is the one admission pass: unknown keys, missing keys, wrong
types, non-finite numbers, out-of-range values and too much work all
raise ConfigError, whose message reads "<dotted path>: <reason>", such as
"task.iterations: must be an integer in [1, 100000], got 0" or
"optimizer.update.lr_outer: must be in (0, 1], got 2.0".  MAX_TRIALS
bounds every trial count, and objectives.MAX_ITERATIONS every iteration
budget.  Each plan bounds its total work when it is built, the product
that those single-field bounds leave open: MAX_TRIAL_STEPS bounds
trials x iterations of tune, robustness and scan, and nn.MAX_TRAIN_WORK
networks x parameters x samples of train-toy.  Optimizer specifications
round-trip losslessly through this format, and may also be pulled in by
reference ({"path": ...}) from a previous tuning run's output.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

from .optim import (
    DEFAULT_MIX,
    FAMILIES,
    UPDATE_KINDS,
    AdaptiveRule,
    ConfigError,
    MomentumRule,
    OptimizerSpec,
    UpdateRule,
    check_integer,
    check_number,
    check_range,
    check_rate,
    check_seed,
    default_update_rule,
    make_spec,
)

SCHEMA_VERSION = 1
COMMANDS = ("tune", "trial", "robustness", "scan", "train-toy")

# The most work one 2-D run may do, a bound on the product of fields that
# the tables bound one by one; each plan applies it when it is built.
# Tune, robustness and scan run trials x iterations trial steps (one
# optimizer step of one 2-D trial); a 316 x 316 scan of 1,000 iterations,
# just under the bound, takes about 12 s on 2 vCPUs.  Train-toy's is
# nn.MAX_TRAIN_WORK.
MAX_TRIAL_STEPS = 10**8


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path and key else path or key


# ------------------------------------------------------------------ readers
# A reader takes (value, path) and returns the checked Python value.  The
# number readers are optim's checks, which the library calls too: Python's
# JSON reader accepts NaN, Infinity and integers of any size, and no field
# takes a value that is not a finite float.

def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    return value


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {value!r}")
    return value


def _check(read, ok: Callable, rule: str):
    """read, then require ok(value); rule says in words what ok requires."""
    return lambda value, path: check_range(read(value, path), path, ok, rule)


def _choice(choices: tuple[str, ...]):
    return _check(_string, lambda value: value in choices, f"one of {list(choices)}")


def _items(read, count: int | None = None):
    """A JSON list read item by item into a tuple, of exactly count items
    when count is given and never empty."""

    def items(value, path):
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list, got {value!r}")
        if count is not None and len(value) != count:
            raise ConfigError(path, f"expected {count} values, got {len(value)}")
        if not value:
            raise ConfigError(path, "must not be empty")
        return tuple(read(v, f"{path}[{i}]") for i, v in enumerate(value))

    return items


# ------------------------------------------------------------------- tables

class Field(NamedTuple):
    """One key of a config object: read checks its value, attr is the
    builder's argument (the key itself when empty), and an optional key
    that is absent or null is left to the builder's default."""

    key: str
    read: Callable
    optional: bool = False
    attr: str = ""


class Table:
    """The field table of one config object and the callable that builds
    the object from the fields' values, passed by keyword."""

    def __init__(self, build: Callable, *fields: Field):
        self.build = build
        self.fields = fields
        self.keys = frozenset(f.key for f in fields)

    def read(self, value, path: str):
        d = _object(value, path)
        if not self.keys.issuperset(d):
            raise ConfigError(_join(path, min(set(d) - self.keys)), "unknown key")
        prefix = f"{path}." if path else ""
        kwargs = {}
        for key, read, optional, attr in self.fields:
            if key not in d:
                if not optional:
                    raise ConfigError(prefix + key, "missing required key")
            elif d[key] is not None or not optional:
                kwargs[attr or key] = read(d[key], prefix + key)
        try:
            return self.build(**kwargs)
        except ConfigError as exc:
            raise ConfigError(_join(path, exc.field_path), exc.reason) from None
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from None

    __call__ = read

    def write(self, obj) -> dict:
        return {f.key: to_json(getattr(obj, f.attr or f.key)) for f in self.fields}


class _RuleTables:
    """The tables of one rule type, one per kind, each holding the fields
    that optim's FIELDS table gives the kind; every field is a number the
    rule may default."""

    def __init__(self, cls):
        self.kinds = _choice(tuple(cls.FIELDS))
        self.tables = {
            kind: Table(cls, Field("kind", _string), *(Field(n, check_number, True) for n in names))
            for kind, names in cls.FIELDS.items()
        }

    def __call__(self, value, path: str):
        d = _object(value, path)
        if "kind" not in d:
            raise ConfigError(_join(path, "kind"), "missing required key")
        return self.tables[self.kinds(d["kind"], _join(path, "kind"))](d, path)

    def write(self, rule) -> dict:
        return self.tables[rule.kind].write(rule)


class _SamplerTable(Table):
    """A sampler is an object, or a bare number for a fixed value."""

    def read(self, value, path: str) -> Sampler:
        if isinstance(value, dict):
            return super().read(value, path)
        return self.build(check_number(value, path))

    __call__ = read

    def write(self, sampler: Sampler):
        return sampler.mean if sampler.std == 0.0 else super().write(sampler)


_MOMENTUM, _ADAPTIVE, parse_update = (_RuleTables(c) for c in (MomentumRule, AdaptiveRule, UpdateRule))
_SPEC = Table(
    OptimizerSpec, Field("momentum", _MOMENTUM), Field("adaptive", _ADAPTIVE), Field("update", parse_update)
)
_WRITERS = {MomentumRule: _MOMENTUM, AdaptiveRule: _ADAPTIVE, UpdateRule: parse_update, OptimizerSpec: _SPEC}
_TASK_TABLES = ("parse_task", "parse_sampler", "parse_distribution")


@cache
def _task_tables() -> dict[str, Table]:
    """The tables of the 2-D task types, by the names in _TASK_TABLES,
    under which this module also hands them out.  They are built on first
    use, so a train-toy plan never loads objectives or harness."""
    from .harness import EvalDistribution, Sampler
    from .objectives import FUNCTIONS, TaskConfig

    sampler = _SamplerTable(Sampler, Field("mean", check_number), Field("std", check_number, optional=True))
    task = Table(
        TaskConfig,
        Field("function", _string),
        Field("alpha", check_number),
        Field("beta", check_number),
        Field("x0", _items(check_number, 2)),
        Field("iterations", check_integer),
        Field("seed", check_integer, optional=True),
    )
    distribution = Table(
        EvalDistribution,
        # EvalDistribution checks nothing itself: its function is first used
        # when the tasks are drawn.
        Field("function", _choice(FUNCTIONS)),
        Field("x0", _items(sampler, 2)),
        Field("alpha", sampler),
        Field("beta", _check(sampler, lambda s: s.std > 0.0 or s.mean > 0.0, "positive when fixed")),
        Field("iterations", sampler),
    )
    return dict(zip(_TASK_TABLES, (task, sampler, distribution)))


def __getattr__(name: str):
    if name not in _TASK_TABLES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return _task_tables()[name]


def to_json(value):
    """The JSON form of a config value, written from its field table; a
    string, a number or None is its own JSON form."""
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    if value is None or isinstance(value, (str, int, float)):
        return value
    writer = _WRITERS.get(type(value))
    if writer is None:
        writer = {table.build: table for table in _task_tables().values()}.get(type(value))
    return value if writer is None else writer.write(value)


_REFERENCE = Table(lambda path: path, Field("path", _string))


def parse_optimizer_spec(d, path: str, base_dir: Path | None = None) -> OptimizerSpec:
    """Parse an inline spec, or follow {"path": ...} to a spec stored inline
    in another JSON file (for example a tuning run's best.json); a relative
    path is taken from base_dir, by default the working directory."""
    d = _object(d, path)
    if "path" not in d:
        return _SPEC(d, path)
    ref = _REFERENCE(d, path)
    try:
        doc = load_json(Path(base_dir or ".") / ref)
    except ConfigError as exc:
        raise ConfigError(f"{path}.path", str(exc)) from None
    inner = doc.get("optimizer", doc) if isinstance(doc, dict) else doc
    return _SPEC(inner, f"{path}({ref})")


# -------------------------------------------------------------------- grids

def _grid(**fields) -> tuple[float, ...]:
    from .tuning import GridSpec, build_grid

    return tuple(build_grid(GridSpec(**fields)))


_GRID_SPEC = Table(
    _grid, Field("lo", check_number), Field("hi", check_number), Field("log10_step", check_number, optional=True)
)
_GRID_LIST = _check(
    _items(check_number), lambda v: all(a < b for a, b in zip(v, v[1:])), "strictly increasing"
)


def parse_grid_axis(value, path: str) -> tuple[float, ...]:
    """One rate axis: either an explicit value list or a GridSpec object."""
    return (_GRID_LIST if isinstance(value, list) else _GRID_SPEC)(value, path)


def parse_grids(d, path: str, update_kind: str) -> RateGrids:
    """The kind's stock grids, with each axis that d gives in place: one
    optional axis per rate the kind grids, each in its rate's range.  The
    grids are refused by tuning.grid_points past MAX_TRIALS points."""
    from .tuning import RATE_AXES, check_axis, default_grids, grid_points

    if d is None:
        return default_grids(update_kind)

    def grids(**axes) -> RateGrids:
        for name, axis in axes.items():
            check_axis(name, axis)
        grids = replace(default_grids(update_kind), **axes)
        grid_points(grids, update_kind)
        return grids

    axes = (Field(name, parse_grid_axis, optional=True) for name in RATE_AXES[update_kind])
    return Table(grids, *axes)(d, path)


# ------------------------------------------------------------------ plans

def _check_steps(path: str, trials: int, iterations: float) -> None:
    """Refuse trials x iterations over MAX_TRIAL_STEPS, at the field that
    sizes each trial, giving every factor of the product."""
    if trials * iterations > MAX_TRIAL_STEPS:
        raise ConfigError(
            path,
            f"{trials} trials x {iterations:g} iterations = {trials * iterations:g} trial steps"
            f" is more than MAX_TRIAL_STEPS = {MAX_TRIAL_STEPS}",
        )


@dataclass
class TunePlan:
    task: TaskConfig
    family: str
    update_kind: str
    grids: RateGrids
    mix: float


@dataclass
class TrialPlan:
    task: TaskConfig
    spec: OptimizerSpec


@dataclass
class RobustnessPlan:
    distribution: EvalDistribution
    spec: OptimizerSpec
    n: int
    seed: int | None = None

    def __post_init__(self):
        # A drawn budget is random: count its mean plus one standard deviation.
        budget = self.distribution.iterations
        _check_steps("distribution.iterations", self.n, max(1.0, budget.mean + budget.std))


@dataclass
class ScanPlan:
    task: TaskConfig
    spec: OptimizerSpec
    x0_range: tuple[float, float] | None = None
    x1_range: tuple[float, float] | None = None
    grid_size: int = 25

    def __post_init__(self):
        _check_steps("task.iterations", self.grid_size**2, self.task.iterations)


@dataclass
class TrainToyPlan:
    settings: ProtocolSettings
    family: str
    update_kind: str
    optimizer: OptimizerSpec
    n_configs: int
    master_seed: int | None


def _tune(task, family, update_kind, grids=None, mix=None) -> TunePlan:
    from .tuning import grid_points

    if mix is None:
        mix = DEFAULT_MIX
    elif "mix" not in UpdateRule.FIELDS[update_kind]:
        raise ConfigError("mix", f"the {update_kind} rule has no mix")
    check_rate("mix", mix)
    grids = parse_grids(grids, "grids", update_kind)
    _check_steps("task.iterations", grid_points(grids, update_kind), task.iterations)
    return TunePlan(task, family, update_kind, grids, mix)


_STOCK_CONFIGS = 10


def _train_toy(
    family, update_kind, optimizer=None, n_configs=_STOCK_CONFIGS, master_seed=None, dataset=None, **settings
) -> TrainToyPlan:
    """An explicit optimizer must be the family's rules, at the optimizer's
    own beta1, beta2 and eps, with the update_rule kind, since the outputs
    are labelled with both.  The run's work, networks x parameters x
    samples, is refused past nn.MAX_TRAIN_WORK at the factor's field that
    is furthest above its stock size, so at a field the plan sets."""
    from .nn import ProtocolSettings, _check_work, param_count

    if optimizer is None:
        try:
            optimizer = make_spec(family, default_update_rule(family, update_kind))
        except ValueError as exc:
            raise ConfigError("update_rule", str(exc)) from None
    elif optimizer.update.kind != update_kind:
        raise ConfigError(
            "optimizer.update.kind", f"must be update_rule {update_kind!r}, got {optimizer.update.kind!r}"
        )
    else:
        mom, ada = optimizer.momentum, optimizer.adaptive
        family_spec = make_spec(family, optimizer.update, beta1=mom.beta1, beta2=ada.beta2, eps=ada.eps)
        expected = (family_spec.momentum, family_spec.adaptive)
        if (mom, ada) != expected:
            raise ConfigError(
                "optimizer", f"{family} has (momentum, adaptive) rules {expected}, got {(mom, ada)}"
            )
    settings = ProtocolSettings(**(dataset or {}), **settings)
    try:
        _check_work(settings, n_configs)
    except ConfigError as exc:
        stock = ProtocolSettings()
        growth = {
            "hidden": param_count(settings.layer_sizes) / param_count(stock.layer_sizes),
            "n_configs": n_configs / _STOCK_CONFIGS,
            "dataset.n": settings.dataset_n / stock.dataset_n,
        }
        raise ConfigError(max(growth, key=growth.get), exc.reason) from None
    return TrainToyPlan(settings, family, update_kind, optimizer, n_configs, master_seed)


_FAMILY = Field("family", _choice(FAMILIES))
_UPDATE_KIND = Field("update_rule", _choice(UPDATE_KINDS), attr="update_kind")
_RANGE = _check(_items(check_number, 2), lambda r: r[0] <= r[1], "[lo, hi] where lo never exceeds hi")
_COUNT = partial(check_integer, lo=1)


def _plan_table(command: str, base_dir: Path) -> Table:
    """The table of one command's plan, made for each config: an optimizer
    given by reference is read relative to the config's directory,
    base_dir.  Each table loads only the modules its command runs: only
    train-toy loads nn and loads none of objectives, harness and tuning,
    and only tune loads tuning."""
    optimizer = partial(parse_optimizer_spec, base_dir=base_dir)
    if command == "train-toy":
        from .nn import ACTIVATIONS, FAN_MODES, MIN_BATCH_SIZE, MIN_NOISE, MIN_SAMPLES

        dataset = Table(
            dict,
            Field("n", partial(check_integer, lo=MIN_SAMPLES), True, "dataset_n"),
            Field("noise", partial(check_number, lo=MIN_NOISE), True, "dataset_noise"),
            Field("seed", check_seed, True, "dataset_seed"),
        )
        return Table(
            _train_toy,
            Field("dataset", dataset, optional=True),
            Field("hidden", _items(_COUNT), optional=True),
            Field("activation", _choice(ACTIVATIONS), optional=True),
            Field("batch_size", partial(check_integer, lo=MIN_BATCH_SIZE), optional=True),
            Field("fan_mode", _choice(tuple(FAN_MODES)), optional=True),
            _FAMILY,
            _UPDATE_KIND,
            Field("optimizer", optimizer, optional=True),
            Field("n_configs", _COUNT, optional=True),
            Field("master_seed", check_seed, optional=True),
        )
    tables = _task_tables()
    task = Field("task", tables["parse_task"])
    spec = Field("optimizer", optimizer, attr="spec")
    if command == "tune":
        return Table(
            _tune,
            task,
            _FAMILY,
            _UPDATE_KIND,
            Field("grids", _object, optional=True),
            Field("mix", check_number, optional=True),
        )
    if command == "trial":
        return Table(TrialPlan, task, spec)
    from .harness import MAX_TRIALS

    if command == "robustness":
        return Table(
            RobustnessPlan,
            Field("distribution", tables["parse_distribution"]),
            spec,
            Field("n", partial(check_integer, lo=1, hi=MAX_TRIALS)),
            Field("seed", check_seed, optional=True),
        )
    return Table(
        ScanPlan,
        task,
        spec,
        Field("x0_range", _RANGE, optional=True),
        Field("x1_range", _RANGE, optional=True),
        Field("grid_size", partial(check_integer, lo=1, hi=math.isqrt(MAX_TRIALS)), optional=True),
    )


def load_json(path: Path | str):
    """Read a JSON document; any read or decode failure is a ConfigError."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError("", f"{path}: file not found") from None
    except OSError as exc:
        raise ConfigError("", f"{path}: cannot read: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # not UTF-8, a NUL in the path, or an integer past Python's digit limit
        raise ConfigError("", f"{path}: {exc}") from None


def load_plan(path: Path | str, expected_command: str | None = None):
    """Read and validate a config file; returns (command, plan)."""
    path = Path(path)
    cfg = load_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError("", f"{path}: top level must be an object")
    if "schema_version" not in cfg:
        raise ConfigError("schema_version", "missing required key")
    version = cfg.pop("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    if "command" not in cfg:
        raise ConfigError("command", "missing required key")
    command = _choice(COMMANDS)(cfg.pop("command"), "command")
    if expected_command is not None and command != expected_command:
        raise ConfigError("command", f"config is for {command!r}, invoked as {expected_command!r}")
    return command, _plan_table(command, path.parent)(cfg, "")

