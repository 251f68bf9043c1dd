#!/usr/bin/env python3
"""optbench benchmark: run one workload of bundled CLI commands in-process
through optbench.cli.main at --parallelism 1, check every output, and
print the metrics named in BENCHMARK.json.

Usage:
    python3 bench/run.py --workload tune --seed 2024 --seconds 36 --trace 0

--trace 0 times the commands untouched and reports the end-to-end metrics;
--trace 1 alternates untraced and traced passes over the command list and
reports the per-layer metrics.  Either way commands repeat while they
should still end within --seconds, after at least one full pass.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the full report,
including the machine record.  All files go to a temporary directory under
bench/.work/ that is removed on exit.
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy

from speed import SpeedGauge
from workloads import BUNDLED_SEED, WORKLOADS, Outcome, check_acceptance, check_outputs, prepare_configs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=BUNDLED_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ------------------------------------------------------------ machine record

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas_info():
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_info(),
        "git_commit": _git_commit(),
    }


# ------------------------------------------------------------------ running

@dataclass
class Sample:
    """One timed run of one command."""

    wall_s: float
    cpu_s: float
    outcome: Outcome


def measure_setup(commands, gauge: SpeedGauge) -> list[float]:
    """Fresh-interpreter import plus load_plan of every workload config."""
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT / "src")]
    argv += [str(c.config) for c in commands]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True
        )
        times.append(float(proc.stdout.strip()))
        gauge.after(times[-1])
    return times


def run_command(cmd, out: Path, cli_main, digests: dict, gauge: SpeedGauge) -> Sample:
    """Run and time one command, then check its outputs outside the timing."""
    argv = [cmd.command, "--config", str(cmd.config), "--out", str(out), "--parallelism", "1"]
    outcome = Outcome()
    gc.collect()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        rc = cli_main(argv)
    except (Exception, SystemExit):
        rc = None
        traceback.print_exc()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    gauge.after(wall)
    if rc != 0:
        outcome.errored = True
        outcome.fail(f"exit code {rc}" if rc is not None else "raised")
    else:
        check_outputs(cmd, out, ROOT, outcome)
        expected = digests.setdefault(cmd.label, outcome.digest)
        if outcome.ok and outcome.digest != expected:
            outcome.fail("outputs differ from the first run of this command")
    shutil.rmtree(out, ignore_errors=True)
    return Sample(wall, cpu, outcome)


def run_workload(args, commands, work: Path, gauge: SpeedGauge):
    """Untraced samples per command label, and the traced passes.

    --trace 0 cycles through the commands, starting the next one while it
    should still end within --seconds, after at least one full pass.
    --trace 1 runs rounds of one untraced and one traced pass instead.
    """
    import optbench.cli
    from tracer import Tracer

    samples = {c.label: [] for c in commands}
    traced = []  # (label -> Sample, Tracer) per traced pass
    digests: dict = {}
    started = time.perf_counter()

    def run(cmd, main, out):
        return run_command(cmd, out, main, digests, gauge)

    def run_pass(main, tag):
        return {c.label: run(c, main, work / tag / c.command / c.name) for c in commands}

    def accept(results):
        check_acceptance({label: r.outcome for label, r in results.items()}, args.seed)

    if not args.trace:
        for i in itertools.count():
            cmd = commands[i % len(commands)]
            if i >= len(commands):
                elapsed = time.perf_counter() - started
                if elapsed + samples[cmd.label][0].wall_s > args.seconds:
                    break
            samples[cmd.label].append(run(cmd, optbench.cli.main, work / f"run{i}"))
            if i == len(commands) - 1:
                accept({label: runs[0] for label, runs in samples.items()})
        return samples, traced

    for rounds in itertools.count(1):
        results = run_pass(optbench.cli.main, f"untraced{rounds}")
        accept(results)
        for label, r in results.items():
            samples[label].append(r)
        tracer = Tracer()
        with tracer.installed():
            results = run_pass(tracer.wrap("cli.main", optbench.cli.main), f"traced{rounds}")
        accept(results)
        traced.append((results, tracer))
        # Start another round only if it should end within --seconds.
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / rounds > args.seconds:
            return samples, traced


def _time_metrics(setup: list[float], samples: dict, speed: float) -> dict:
    """setup_s, wall_s, trials_per_s and cpu_s, each time multiplied by
    speed; wall_s and cpu_s sum each command's median."""
    wall_s = speed * sum(median([r.wall_s for r in rs]) for rs in samples.values())
    trials = sum(rs[0].outcome.trials for rs in samples.values())
    return {
        "setup_s": speed * median(setup),
        "wall_s": wall_s,
        "trials_per_s": trials / wall_s,
        "cpu_s": speed * sum(median([r.cpu_s for r in rs]) for rs in samples.values()),
    }


def summarize(args, setup: list[float], samples: dict, traced: list, gauge: SpeedGauge) -> tuple[dict, dict]:
    """(report, result line) for the finished run."""
    speed = gauge.factor()
    runs = [(label, r) for label, rs in samples.items() for r in rs]
    runs += [(label, r) for results, _ in traced for label, r in results.items()]
    attempted = len(runs)
    ok = sum(1 for _, r in runs if r.outcome.ok)
    errors = sum(1 for _, r in runs if r.outcome.errored)
    problems = sorted({f"{label}: {p}" for label, r in runs for p in r.outcome.problems})

    per_command = {
        label: {
            "wall_s": median([r.wall_s for r in rs]),
            "samples": len(rs),
        }
        for label, rs in samples.items()
    }
    values = {
        **_time_metrics(setup, samples, speed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = _time_metrics(setup, samples, 1.0)
    checks = {"outputs_ok": ok / attempted, "error_rate": errors / attempted}

    layer_values = {}
    if traced:
        per_pass = []
        for k, (results, tracer) in enumerate(traced):
            layers = tracer.layer_metrics()
            traced_wall = sum(r.wall_s for r in results.values())
            # Each traced pass against the untraced pass run just before it.
            untraced_wall = sum(rs[k].wall_s for rs in samples.values())
            layers["trace.coverage"] = tracer.covered_s() / traced_wall
            layers["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
            per_pass.append(layers)
        layer_values = {k: median([p[k] for p in per_pass]) for k in per_pass[0]}

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layer_values if args.trace else values
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in chosen}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "trials_per_pass": sum(rs[0].outcome.trials for rs in samples.values()),
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "raw": {k: {"value": v, "unit": units[k]} for k, v in raw.items()},
        "speed": speed,
        "reference_kernel_samples": len(gauge.kernel_s),
        "checks": {k: {"value": v, "unit": "ratio"} for k, v in checks.items()},
        "setup_samples_s": setup,
        "per_command": per_command,
        "per_layer": {k: {"value": v, "unit": units[k]} for k, v in layer_values.items()},
        "problems": problems,
    }
    result = {
        "correct": ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    if not (ROOT / "src" / "optbench" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no optbench source tree (src/optbench, configs/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = _parse_args(argv)

    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        commands = prepare_configs(ROOT, work, args.workload, args.seed)
        gauge = SpeedGauge()
        setup = measure_setup(commands, gauge)
        samples, traced = run_workload(args, commands, work, gauge)
        report, result = summarize(args, setup, samples, traced, gauge)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    raw = {f"raw.{k}": v for k, v in report["raw"].items()}
    for name, entry in {**report["end_to_end"], **raw, **report["checks"], **report["per_layer"]}.items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{'speed':40s} {report['speed']:>16.6g} (scale from raw to reference-speed times)")
    for problem in report["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
