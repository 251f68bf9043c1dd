"""Tests of the benchmark itself (not collected by the repository's suite).

Run: python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import BUNDLED_SEED, WORKLOADS, prepare_configs  # noqa: E402

# Left behind by Python and pytest themselves, and ignored by git.
CACHE_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
COUNT_METRICS = ("optim.step.calls", "nn.forward.calls", "nn.backward.calls", "cli.write.bytes")


def _snapshot(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root)
        if CACHE_DIRS.intersection(rel.parts):
            continue
        out[str(rel)] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "dir"
    return out


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_runs_report_every_metric_and_leave_the_tree_unchanged():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = _snapshot(ROOT)
    base = ["--workload", "train-toy", "--seed", "7", "--seconds", "1"]
    untraced = _result(_bench(ROOT, *base, "--trace", "0"))
    traced = [_result(_bench(ROOT, *base, "--trace", "1")) for _ in range(2)]
    assert _snapshot(ROOT) == before

    for result, group in ((untraced, "end_to_end"), *((t, "per_layer") for t in traced)):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
        assert set(result["metrics"]) == {m["name"] for m in spec[group]}
    for name in COUNT_METRICS:
        assert traced[0]["metrics"][name]["value"] == traced[1]["metrics"][name]["value"] > 0


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tune", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seed_rewrites_only_seed_fields(tmp_path):
    commands = {c.label: c for w in WORKLOADS for c in prepare_configs(ROOT, tmp_path / w, w, 7)}
    for label, cmd in commands.items():
        copy = json.loads(cmd.config.read_text())
        bundled = json.loads((ROOT / "configs" / cmd.command / f"{cmd.name}.json").read_text())
        for key in ("seed", "master_seed"):
            if key in bundled:
                assert bundled[key] == BUNDLED_SEED and copy[key] == 7, label
                copy[key] = bundled[key]
        assert copy == bundled, label
    # Seeds reach the workloads that draw random inputs.
    assert any("seed" in json.loads(c.config.read_text()) for c in commands.values())
    assert any("master_seed" in json.loads(c.config.read_text()) for c in commands.values())
