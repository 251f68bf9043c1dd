"""Benchmark a git revision against the working tree, or against a second
revision, in alternating pairs.

Usage: python3 scripts/bench_pairs.py REV [CHANGE] --workload W [--pairs N] [--seconds S]

Checks REV out as a detached git worktree under .bench-pairs/ at the top
of the repository, and CHANGE, when given, as a second one beside it;
without CHANGE the working tree is the change side.  Then runs
`bench/run.py --workload W --seconds S --trace 0` N times in each tree,
alternating between them and which tree runs first in a pair: REV first
in the first pair, the change first in the second, and so on.  Every
__pycache__ directory in both trees is deleted before every run, so
neither tree imports bytecode compiled from the other's sources or from
an earlier state of its own.

Writes BENCH_<W>.json at the top of the repository: every pair's
end-to-end metrics, and for each metric the median of both sides, REV's
quartiles and their distance, the change of the median and the number of
pairs the change wins, with the machine record bench/run.py reports and
whether the runs kept compiled bytecode (PYTHONDONTWRITEBYTECODE and
sys.dont_write_bytecode of this process, whose environment the runs
inherit).  The worktrees are removed on exit.  Exits 1 if a run fails a
check.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS_DIR = ROOT / ".bench-pairs"


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def _commit(rev: str) -> str:
    return _git("rev-parse", "--verify", f"{rev}^{{commit}}")


def _add_worktree(side: str, commit: str) -> Path:
    """A fresh detached worktree of commit under .bench-pairs/<side>-<commit>."""
    tree = PAIRS_DIR / f"{side}-{commit[:12]}"
    if tree.exists():
        _git("worktree", "remove", "--force", str(tree))
    _git("worktree", "add", "--detach", str(tree), commit)
    return tree


def _clear_bytecode(tree: Path) -> None:
    for cache in [p for p in tree.rglob("__pycache__") if ".git" not in p.parts]:
        shutil.rmtree(cache, ignore_errors=True)


def _run(tree: Path, workload: str, seconds: float) -> tuple[dict, dict]:
    """(report, result line) of one bench/run.py run in tree."""
    for where in {tree, ROOT}:
        _clear_bytecode(where)
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py failed in {tree}:\n{proc.stderr}")
    *_, report, result = proc.stdout.splitlines()
    return json.loads(report), json.loads(result)


def _quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both medians, the base's quartiles, the change of the
    median and the pairs the change wins (is better in)."""
    summary = {}
    for name, direction in better.items():
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        q1, q3 = _quartiles(base)
        sign = 1.0 if direction == "higher" else -1.0
        summary[name] = {
            "better": direction,
            "base_median": statistics.median(base),
            "base_quartiles": [q1, q3],
            "base_quartile_distance": q3 - q1,
            "change_median": statistics.median(change),
            "median_change": statistics.median(change) / statistics.median(base) - 1.0,
            "wins": sum(sign * (c - b) > 0.0 for b, c in zip(base, change)),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare the change with")
    parser.add_argument("change", nargs="?", help="the git revision to measure as the change (default: the working tree)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=36.0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds positive")

    base_commit = _commit(args.rev)
    if args.change is None:
        change = {"commit": _git("rev-parse", "HEAD"), "uncommitted_changes": bool(_git("status", "--porcelain"))}
    else:
        change = {"rev": args.change, "commit": _commit(args.change)}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    base_tree, change_tree = _add_worktree("base", base_commit), ROOT
    pairs, machine, failed = [], None, 0
    try:
        if args.change is not None:
            change_tree = _add_worktree("change", change["commit"])
        for i in range(args.pairs):
            sides = (("base", base_tree), ("change", change_tree))[:: 1 if i % 2 == 0 else -1]
            pair = {"first": sides[0][0]}
            for side, where in sides:
                report, result = _run(where, args.workload, args.seconds)
                pair[side] = {name: entry["value"] for name, entry in result["metrics"].items()}
                failed += result["failed"]
                machine = machine or {k: v for k, v in report["machine"].items() if k != "git_commit"}
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs}: wall_s {pair['base']['wall_s']:.4f} -> {pair['change']['wall_s']:.4f}")
    finally:
        for tree in {base_tree, change_tree} - {ROOT}:
            _git("worktree", "remove", "--force", str(tree))
        try:
            PAIRS_DIR.rmdir()
        except OSError:
            pass
    document = {
        "workload": args.workload,
        "seconds": args.seconds,
        "command": f"bench/run.py --workload {args.workload} --seconds {args.seconds:g} --trace 0",
        "base": {"rev": args.rev, "commit": base_commit},
        "change": change,
        # setup_s compiles every module from source when no bytecode is kept.
        "machine": {
            **machine,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "dont_write_bytecode": sys.dont_write_bytecode,
        },
        "units": units,
        "failed_runs": failed,
        "pairs": pairs,
        "summary": summarize(pairs, better),
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(document, indent=2) + "\n")
    for name, s in document["summary"].items():
        print(
            f"{name:14s} {s['base_median']:.6g} -> {s['change_median']:.6g} ({s['median_change']:+.1%}), "
            f"wins {s['wins']}/{len(pairs)}, base quartile distance {s['base_quartile_distance']:.3g}"
        )
    print(f"wrote {out.relative_to(ROOT)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
