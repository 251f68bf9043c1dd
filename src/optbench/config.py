"""JSON config schema shared by all CLI commands.

Every config carries schema_version and command fields, and validation is
strict: unknown keys, missing keys, and out-of-range values all raise
ConfigError with a dotted field path so the CLI can point at the exact
problem.  Optimizer specifications round-trip losslessly through this
format, and may also be pulled in by reference ({"path": ...}) from a
previous tuning run's output.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .harness import EvalDistribution, Sampler
from .nn import ACTIVATIONS, ProtocolSettings
from .objectives import FUNCTIONS, TaskConfig
from .optim import (
    ADAPTIVE_KINDS,
    FAMILIES,
    MOMENTUM_KINDS,
    UPDATE_KINDS,
    AdaptiveRule,
    MomentumRule,
    OptimizerSpec,
    UpdateRule,
    default_update_rule,
    make_spec,
)
from .tuning import GridSpec, RateGrids, build_grid, default_grids

SCHEMA_VERSION = 1
COMMANDS = ("tune", "trial", "robustness", "scan", "train-toy")


class ConfigError(ValueError):
    """A malformed config; the message starts with the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.field_path = path


def _check_keys(d: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}" if path else unknown[0], "unknown key")


def _get(d: dict, key: str, path: str, required: bool = True, default=None):
    if key not in d:
        if required:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
        return default
    return d[key]


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    # Python's JSON reader accepts NaN, Infinity and integers of any size;
    # no field takes a value that is not a finite float.
    if not math.isfinite(number):
        raise ConfigError(path, f"expected a finite number, got {number}")
    return number


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _as_str(value, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(path, f"must be one of {list(choices)}, got {value!r}")
    return value


def _as_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {value!r}")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, f"expected a list, got {value!r}")
    return value


def _wrap(path: str, exc: ValueError) -> ConfigError:
    return ConfigError(path, str(exc))


# ---------------------------------------------------------------- optimizer

def parse_momentum(d, path: str) -> MomentumRule:
    d = _as_dict(d, path)
    kind = _as_str(_get(d, "kind", path), f"{path}.kind", MOMENTUM_KINDS)
    allowed = {"kind"} | ({"beta1"} if kind == "ema" else set())
    _check_keys(d, allowed, path)
    try:
        if kind == "ema" and "beta1" in d:
            return MomentumRule("ema", beta1=_as_number(d["beta1"], f"{path}.beta1"))
        return MomentumRule(kind)
    except ValueError as exc:
        raise _wrap(path, exc) from None


def parse_adaptive(d, path: str) -> AdaptiveRule:
    d = _as_dict(d, path)
    kind = _as_str(_get(d, "kind", path), f"{path}.kind", ADAPTIVE_KINDS)
    allowed = {"kind"}
    if kind == "ema":
        allowed |= {"beta2", "eps"}
    elif kind == "accumulate":
        allowed |= {"eps"}
    _check_keys(d, allowed, path)
    kwargs = {}
    if "beta2" in d:
        kwargs["beta2"] = _as_number(d["beta2"], f"{path}.beta2")
    if "eps" in d:
        kwargs["eps"] = _as_number(d["eps"], f"{path}.eps")
    try:
        return AdaptiveRule(kind, **kwargs)
    except ValueError as exc:
        raise _wrap(path, exc) from None


def parse_update(d, path: str) -> UpdateRule:
    d = _as_dict(d, path)
    kind = _as_str(_get(d, "kind", path), f"{path}.kind", UPDATE_KINDS)
    allowed = {"kind"}
    if kind in ("additive", "hybrid"):
        allowed.add("lr")
    if kind in ("multiplicative", "hybrid"):
        allowed |= {"lr_inner", "lr_outer"}
    if kind == "hybrid":
        allowed.add("mix")
    _check_keys(d, allowed, path)
    kwargs = {}
    for key in ("lr", "lr_inner", "lr_outer", "mix"):
        if key in d:
            kwargs[key] = _as_number(d[key], f"{path}.{key}")
    try:
        return UpdateRule(kind, **kwargs)
    except ValueError as exc:
        raise _wrap(path, exc) from None


def parse_optimizer_spec(d, path: str, base_dir: Path | None = None) -> OptimizerSpec:
    """Parse an inline spec, or follow {"path": ...} to a spec stored in
    another JSON file (for example a tuning run's best.json)."""
    d = _as_dict(d, path)
    if "path" in d:
        _check_keys(d, {"path"}, path)
        ref = _as_str(d["path"], f"{path}.path")
        base = base_dir if base_dir is not None else Path.cwd()
        target = Path(ref)
        if not target.is_absolute():
            target = base / target
        try:
            doc = load_json(target)
        except OSError as exc:
            raise ConfigError(f"{path}.path", f"cannot read {target}: {exc}") from None
        inner = doc.get("optimizer", doc) if isinstance(doc, dict) else doc
        return parse_optimizer_spec(inner, f"{path}({ref})")
    _check_keys(d, {"momentum", "adaptive", "update"}, path)
    return OptimizerSpec(
        momentum=parse_momentum(_get(d, "momentum", path), f"{path}.momentum"),
        adaptive=parse_adaptive(_get(d, "adaptive", path), f"{path}.adaptive"),
        update=parse_update(_get(d, "update", path), f"{path}.update"),
    )


def momentum_to_dict(rule: MomentumRule) -> dict:
    if rule.kind == "identity":
        return {"kind": "identity"}
    return {"kind": "ema", "beta1": rule.beta1}


def adaptive_to_dict(rule: AdaptiveRule) -> dict:
    if rule.kind == "identity":
        return {"kind": "identity"}
    if rule.kind == "accumulate":
        return {"kind": "accumulate", "eps": rule.eps}
    return {"kind": "ema", "beta2": rule.beta2, "eps": rule.eps}


def update_to_dict(rule: UpdateRule) -> dict:
    out = {"kind": rule.kind}
    if rule.kind in ("additive", "hybrid"):
        out["lr"] = rule.lr
    if rule.kind in ("multiplicative", "hybrid"):
        out["lr_inner"] = rule.lr_inner
        out["lr_outer"] = rule.lr_outer
    if rule.kind == "hybrid":
        out["mix"] = rule.mix
    return out


def spec_to_dict(spec: OptimizerSpec) -> dict:
    return {
        "momentum": momentum_to_dict(spec.momentum),
        "adaptive": adaptive_to_dict(spec.adaptive),
        "update": update_to_dict(spec.update),
    }


# --------------------------------------------------------------------- task

def parse_task(d, path: str) -> TaskConfig:
    d = _as_dict(d, path)
    _check_keys(d, {"function", "alpha", "beta", "x0", "iterations", "seed"}, path)
    x0 = _as_list(_get(d, "x0", path), f"{path}.x0")
    if len(x0) != 2:
        raise ConfigError(f"{path}.x0", f"expected two values, got {len(x0)}")
    try:
        return TaskConfig(
            function=_as_str(_get(d, "function", path), f"{path}.function", FUNCTIONS),
            alpha=_as_number(_get(d, "alpha", path), f"{path}.alpha"),
            beta=_as_number(_get(d, "beta", path), f"{path}.beta"),
            x0=(_as_number(x0[0], f"{path}.x0[0]"), _as_number(x0[1], f"{path}.x0[1]")),
            iterations=_as_int(_get(d, "iterations", path), f"{path}.iterations"),
            seed=_as_int(_get(d, "seed", path, required=False, default=0), f"{path}.seed"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise _wrap(path, exc) from None


def task_to_dict(task: TaskConfig) -> dict:
    return {
        "function": task.function,
        "alpha": task.alpha,
        "beta": task.beta,
        "x0": list(task.x0),
        "iterations": task.iterations,
        "seed": task.seed,
    }


def parse_sampler(value, path: str) -> Sampler:
    if isinstance(value, dict):
        _check_keys(value, {"mean", "std"}, path)
        try:
            return Sampler(
                mean=_as_number(_get(value, "mean", path), f"{path}.mean"),
                std=_as_number(_get(value, "std", path, required=False, default=0.0), f"{path}.std"),
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise _wrap(path, exc) from None
    return Sampler(mean=_as_number(value, path))


def sampler_to_value(s: Sampler):
    if s.std == 0.0:
        return s.mean
    return {"mean": s.mean, "std": s.std}


def parse_distribution(d, path: str) -> EvalDistribution:
    d = _as_dict(d, path)
    _check_keys(d, {"function", "x0", "alpha", "beta", "iterations"}, path)
    x0 = _as_list(_get(d, "x0", path), f"{path}.x0")
    if len(x0) != 2:
        raise ConfigError(f"{path}.x0", f"expected two samplers, got {len(x0)}")
    beta = parse_sampler(_get(d, "beta", path), f"{path}.beta")
    if beta.std == 0.0 and beta.mean <= 0.0:
        raise ConfigError(f"{path}.beta", f"a fixed beta must be positive, got {beta.mean}")
    return EvalDistribution(
        function=_as_str(_get(d, "function", path), f"{path}.function", FUNCTIONS),
        x0=(parse_sampler(x0[0], f"{path}.x0[0]"), parse_sampler(x0[1], f"{path}.x0[1]")),
        alpha=parse_sampler(_get(d, "alpha", path), f"{path}.alpha"),
        beta=beta,
        iterations=parse_sampler(_get(d, "iterations", path), f"{path}.iterations"),
    )


def distribution_to_dict(dist: EvalDistribution) -> dict:
    return {
        "function": dist.function,
        "x0": [sampler_to_value(dist.x0[0]), sampler_to_value(dist.x0[1])],
        "alpha": sampler_to_value(dist.alpha),
        "beta": sampler_to_value(dist.beta),
        "iterations": sampler_to_value(dist.iterations),
    }


# -------------------------------------------------------------------- grids

def parse_grid_axis(value, path: str) -> tuple[float, ...]:
    """One rate axis: either an explicit value list or a GridSpec object."""
    if isinstance(value, list):
        vals = tuple(_as_number(v, f"{path}[{i}]") for i, v in enumerate(value))
        if not vals:
            raise ConfigError(path, "grid must not be empty")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ConfigError(path, "grid values must be strictly increasing")
        return vals
    d = _as_dict(value, path)
    _check_keys(d, {"lo", "hi", "log10_step"}, path)
    try:
        spec = GridSpec(
            lo=_as_number(_get(d, "lo", path), f"{path}.lo"),
            hi=_as_number(_get(d, "hi", path), f"{path}.hi"),
            log10_step=_as_number(
                _get(d, "log10_step", path, required=False, default=0.5), f"{path}.log10_step"
            ),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise _wrap(path, exc) from None
    return tuple(build_grid(spec))


def parse_grids(d, path: str, update_kind: str) -> RateGrids:
    defaults = default_grids(update_kind)
    if d is None:
        return defaults
    d = _as_dict(d, path)
    allowed = set()
    if update_kind in ("additive", "hybrid"):
        allowed.add("lr")
    if update_kind in ("multiplicative", "hybrid"):
        allowed |= {"lr_inner", "lr_outer"}
    _check_keys(d, allowed, path)
    out = {}
    for name in ("lr", "lr_inner", "lr_outer"):
        if name in d:
            out[name] = parse_grid_axis(d[name], f"{path}.{name}")
        else:
            out[name] = getattr(defaults, name)
    return RateGrids(**out)


# ------------------------------------------------------------------ plans

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
    seed: int | None


@dataclass
class ScanPlan:
    task: TaskConfig
    spec: OptimizerSpec
    x0_range: tuple[float, float] | None
    x1_range: tuple[float, float] | None
    grid_size: int


@dataclass
class TrainToyPlan:
    settings: ProtocolSettings
    family: str
    update_kind: str
    optimizer: OptimizerSpec
    n_configs: int
    master_seed: int | None


def _parse_range(value, path: str) -> tuple[float, float] | None:
    if value is None:
        return None
    pair = _as_list(value, path)
    if len(pair) != 2:
        raise ConfigError(path, f"expected [lo, hi], got {value!r}")
    lo = _as_number(pair[0], f"{path}[0]")
    hi = _as_number(pair[1], f"{path}[1]")
    if lo > hi:
        raise ConfigError(path, f"lo {lo} exceeds hi {hi}")
    return (lo, hi)


def parse_tune(cfg: dict, base_dir: Path) -> TunePlan:
    _check_keys(cfg, {"schema_version", "command", "task", "family", "update_rule", "grids", "mix"}, "")
    family = _as_str(_get(cfg, "family", ""), "family", FAMILIES)
    update_kind = _as_str(_get(cfg, "update_rule", ""), "update_rule", UPDATE_KINDS)
    mix = _as_number(_get(cfg, "mix", "", required=False, default=0.5), "mix")
    if not 0.0 <= mix <= 1.0:
        raise ConfigError("mix", f"must be in [0, 1], got {mix}")
    return TunePlan(
        task=parse_task(_get(cfg, "task", ""), "task"),
        family=family,
        update_kind=update_kind,
        grids=parse_grids(cfg.get("grids"), "grids", update_kind),
        mix=mix,
    )


def parse_trial(cfg: dict, base_dir: Path) -> TrialPlan:
    _check_keys(cfg, {"schema_version", "command", "task", "optimizer"}, "")
    return TrialPlan(
        task=parse_task(_get(cfg, "task", ""), "task"),
        spec=parse_optimizer_spec(_get(cfg, "optimizer", ""), "optimizer", base_dir),
    )


def parse_robustness(cfg: dict, base_dir: Path) -> RobustnessPlan:
    _check_keys(cfg, {"schema_version", "command", "distribution", "optimizer", "n", "seed"}, "")
    n = _as_int(_get(cfg, "n", ""), "n")
    if n < 1:
        raise ConfigError("n", f"must be >= 1, got {n}")
    seed = cfg.get("seed")
    if seed is not None:
        seed = _as_int(seed, "seed")
    return RobustnessPlan(
        distribution=parse_distribution(_get(cfg, "distribution", ""), "distribution"),
        spec=parse_optimizer_spec(_get(cfg, "optimizer", ""), "optimizer", base_dir),
        n=n,
        seed=seed,
    )


def parse_scan(cfg: dict, base_dir: Path) -> ScanPlan:
    _check_keys(
        cfg,
        {"schema_version", "command", "task", "optimizer", "x0_range", "x1_range", "grid_size"},
        "",
    )
    grid_size = _as_int(_get(cfg, "grid_size", "", required=False, default=25), "grid_size")
    if grid_size < 1:
        raise ConfigError("grid_size", f"must be >= 1, got {grid_size}")
    return ScanPlan(
        task=parse_task(_get(cfg, "task", ""), "task"),
        spec=parse_optimizer_spec(_get(cfg, "optimizer", ""), "optimizer", base_dir),
        x0_range=_parse_range(cfg.get("x0_range"), "x0_range"),
        x1_range=_parse_range(cfg.get("x1_range"), "x1_range"),
        grid_size=grid_size,
    )


def parse_train_toy(cfg: dict, base_dir: Path) -> TrainToyPlan:
    _check_keys(
        cfg,
        {
            "schema_version",
            "command",
            "dataset",
            "hidden",
            "activation",
            "family",
            "update_rule",
            "optimizer",
            "n_configs",
            "batch_size",
            "master_seed",
            "fan_mode",
        },
        "",
    )
    dataset = _as_dict(cfg.get("dataset", {}), "dataset")
    _check_keys(dataset, {"n", "noise", "seed"}, "dataset")
    hidden = _as_list(cfg.get("hidden", [16]), "hidden")
    hidden_sizes = tuple(_as_int(v, f"hidden[{i}]") for i, v in enumerate(hidden))
    if not hidden_sizes or any(h < 1 for h in hidden_sizes):
        raise ConfigError("hidden", f"layer widths must be positive, got {hidden!r}")
    fan_mode = _as_str(cfg.get("fan_mode", "product"), "fan_mode", ("product", "sum"))
    try:
        settings = ProtocolSettings(
            dataset_n=_as_int(_get(dataset, "n", "dataset", required=False, default=400), "dataset.n"),
            dataset_noise=_as_number(
                _get(dataset, "noise", "dataset", required=False, default=0.15), "dataset.noise"
            ),
            dataset_seed=_as_int(
                _get(dataset, "seed", "dataset", required=False, default=0), "dataset.seed"
            ),
            hidden=hidden_sizes,
            activation=_as_str(cfg.get("activation", "relu"), "activation", ACTIVATIONS),
            batch_size=_as_int(cfg.get("batch_size", 32), "batch_size"),
            fan_mode=fan_mode,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise _wrap("dataset", exc) from None
    family = _as_str(_get(cfg, "family", ""), "family", FAMILIES)
    update_kind = _as_str(_get(cfg, "update_rule", ""), "update_rule", UPDATE_KINDS)
    if "optimizer" in cfg:
        optimizer = parse_optimizer_spec(cfg["optimizer"], "optimizer", base_dir)
    else:
        try:
            optimizer = make_spec(family, default_update_rule(family, update_kind))
        except ValueError as exc:
            raise _wrap("update_rule", exc) from None
    n_configs = _as_int(cfg.get("n_configs", 10), "n_configs")
    if n_configs < 1:
        raise ConfigError("n_configs", f"must be >= 1, got {n_configs}")
    master_seed = cfg.get("master_seed")
    if master_seed is not None:
        master_seed = _as_int(master_seed, "master_seed")
    return TrainToyPlan(
        settings=settings,
        family=family,
        update_kind=update_kind,
        optimizer=optimizer,
        n_configs=n_configs,
        master_seed=master_seed,
    )


_PARSERS = {
    "tune": parse_tune,
    "trial": parse_trial,
    "robustness": parse_robustness,
    "scan": parse_scan,
    "train-toy": parse_train_toy,
}


def load_json(path: Path | str) -> dict:
    path = Path(path)
    text = path.read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise ConfigError("", f"{path}: {exc}") from None


def load_plan(path: Path | str, expected_command: str | None = None):
    """Read and validate a config file; returns (command, plan)."""
    path = Path(path)
    cfg = load_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError("", f"{path}: top level must be an object")
    version = _get(cfg, "schema_version", "")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    command = _as_str(_get(cfg, "command", ""), "command", COMMANDS)
    if expected_command is not None and command != expected_command:
        raise ConfigError("command", f"config is for {command!r}, invoked as {expected_command!r}")
    plan = _PARSERS[command](cfg, path.parent)
    return command, plan
