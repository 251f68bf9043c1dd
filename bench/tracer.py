"""Per-layer timing by wrapping the names optbench's callers look up.

Nothing under src/ is edited: while a Tracer is installed, module
attributes such as ``optbench.harness.step`` are replaced by timing
wrappers, and the originals are put back on exit.  Each wrapped call is a
span; a span's self time is its duration minus the time of the wrapped
calls made inside it.  Everything runs at --parallelism 1, so one stack
per process is enough.
"""
from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager

import optbench.cli
import optbench.harness
import optbench.nn
import optbench.tuning

UPDATE_KINDS = ("additive", "multiplicative", "hybrid")


@dataclasses.dataclass
class Span:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Collects spans and counters for one traced pass."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[float] = []

    def _count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, fn, after=None, name_of=None):
        """Time calls to fn as span `name` (or name_of(*args) when given);
        after(result, *args) updates counters outside the timed region."""
        perf = time.perf_counter
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            key = name_of(*args) if name_of else name
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                span = spans.get(key)
                if span is None:
                    span = spans[key] = Span()
                span.calls += 1
                span.busy_s += dt
                span.self_s += dt - child
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    # ------------------------------------------------------------ counters

    def _after_trial(self, record, task, spec) -> None:
        self._count("trials")
        self._count("steps", record.iterations_run)
        self._count("budget", task.iterations)
        if not record.diverged:
            self._count("useful_trials")

    def _after_train(self, result, *args) -> None:
        if result.diverged:
            self._count("diverged_runs")

    def _after_write(self, result, path, text) -> None:
        self._count("write_bytes", len(text.encode()))

    def _wrap_objective(self, make_objective):
        def wrapped(task):
            objective = make_objective(task)
            gradient = self.wrap("objectives.gradient", objective.gradient)
            return dataclasses.replace(objective, gradient=gradient)

        return wrapped

    # -------------------------------------------------------------- install

    def _targets(self):
        """(owner, attribute, replacement) for every name that is wrapped."""
        harness, nn, cli, tuning = optbench.harness, optbench.nn, optbench.cli, optbench.tuning
        step = self.wrap(
            "optim.step", harness.step, name_of=lambda spec, *_: f"optim.step.{spec.update.kind}"
        )
        run_trials = self.wrap("harness.run_trials", harness.run_trials)
        return [
            (harness, "step", step),
            (nn, "step", step),
            (harness, "make_objective", self._wrap_objective(harness.make_objective)),
            (
                harness,
                "distance_to_minimum",
                self.wrap("objectives.distance_to_minimum", harness.distance_to_minimum),
            ),
            (harness, "run_trial", self.wrap("harness.run_trial", harness.run_trial, self._after_trial)),
            (harness, "run_trials", run_trials),
            (tuning, "run_trials", run_trials),
            (
                harness,
                "sample_eval_config",
                self.wrap("harness.sample_eval_config", harness.sample_eval_config),
            ),
            (cli, "grid_search", self.wrap("tuning.grid_search", cli.grid_search)),
            (cli, "load_plan", self.wrap("config.load_plan", cli.load_plan)),
            (cli, "_write_text", self.wrap("cli.write", cli._write_text, self._after_write)),
            (nn.MLP, "forward", self.wrap("nn.forward", nn.MLP.forward)),
            (nn.MLP, "backward", self.wrap("nn.backward", nn.MLP.backward)),
            (nn.MLP, "evaluate", self.wrap("nn.evaluate", nn.MLP.evaluate)),
            (nn, "train", self.wrap("nn.train", nn.train, self._after_train)),
        ]

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, replacement in self._targets():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -------------------------------------------------------------- report

    def span(self, name: str) -> Span:
        if name == "optim.step":
            parts = [self.spans.get(f"optim.step.{k}", Span()) for k in UPDATE_KINDS]
            return Span(
                calls=sum(p.calls for p in parts),
                busy_s=sum(p.busy_s for p in parts),
                self_s=sum(p.self_s for p in parts),
            )
        return self.spans.get(name, Span())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of this pass, keyed by metric name (no trace.*)."""

        def mean_us(span: Span) -> float:
            return span.busy_s / span.calls * 1e6 if span.calls else 0.0

        out: dict[str, float] = {}
        step = self.span("optim.step")
        out["optim.step.calls"] = step.calls
        out["optim.step.busy_s"] = step.busy_s
        out["optim.step.mean_us"] = mean_us(step)
        for kind in UPDATE_KINDS:
            s = self.span(f"optim.step.{kind}")
            out[f"optim.step.{kind}.calls"] = s.calls
            out[f"optim.step.{kind}.mean_us"] = mean_us(s)
        for name in (
            "objectives.gradient",
            "objectives.distance_to_minimum",
            "harness.sample_eval_config",
            "nn.forward",
            "nn.backward",
            "nn.evaluate",
            "config.load_plan",
            "cli.write",
        ):
            s = self.span(name)
            out[f"{name}.calls"] = s.calls
            out[f"{name}.busy_s"] = s.busy_s
        trial = self.span("harness.run_trial")
        out["harness.run_trial.calls"] = trial.calls
        out["harness.run_trial.self_s"] = trial.self_s
        out["harness.run_trials.busy_s"] = self.span("harness.run_trials").busy_s
        counts = self.counts
        out["harness.steps"] = counts.get("steps", 0)
        budget = counts.get("budget", 0)
        out["harness.step_budget_ratio"] = counts.get("steps", 0) / budget if budget else 0.0
        trials = counts.get("trials", 0)
        out["harness.useful_trial_ratio"] = counts.get("useful_trials", 0) / trials if trials else 0.0
        grid = self.span("tuning.grid_search")
        out["tuning.grid_search.calls"] = grid.calls
        out["tuning.grid_search.self_s"] = grid.self_s
        out["nn.train.self_s"] = self.span("nn.train").self_s
        out["nn.train.diverged_runs"] = counts.get("diverged_runs", 0)
        out["cli.write.bytes"] = counts.get("write_bytes", 0)
        out["cli.main.self_s"] = self.span("cli.main").self_s
        return out

    def covered_s(self) -> float:
        """Self time of every span below the cli.main root."""
        return sum(s.self_s for name, s in self.spans.items() if name != "cli.main")
