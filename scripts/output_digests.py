"""Pin the bytes of every output the bundled configs write.

Runs each bundled tune, robustness, scan and train-toy config under
configs/ through the CLI, at the seeds the configs carry, and each
robustness config again at the seeds in ROBUSTNESS_SEEDS, and records the
sha256 of every file it writes in tests/data/output_digests.json, so a
change that must leave every output bit the same can show it with one
command.  A robustness output at another seed is keyed
robustness@<seed>/<config>/<file>.

The file also records the numerics profile that made the digests:
OpenBLAS's runtime configuration and core, numpy's version and numpy's
enabled SIMD targets.  The train-toy outputs rest on the BLAS's
accumulation order (a gemm adds the first layer's bias through a ones
column, see optbench.nn), so the same code may write other bits under
another profile.

Usage: python3 scripts/output_digests.py [--check]

--check recomputes the digests and compares them with the stored file
instead of writing it, whatever the profile; it exits 1 and lists every
output that differs, is missing or is extra, and then names the stored
profile and this one.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath

from optbench.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
DIGESTS = ROOT / "tests" / "data" / "output_digests.json"
# The bundled configs that run as a command of the same name; configs/tuned
# holds the specs they reference.
COMMANDS = ("tune", "robustness", "scan", "train-toy")
# Seeds other than the bundled one at which every robustness config runs too.
ROBUSTNESS_SEEDS = (1, 7)


def digests() -> dict[str, str]:
    """The sha256 of every output file of every bundled config, keyed by
    command/config/file."""
    with tempfile.TemporaryDirectory(prefix="optbench-digests-") as tmp:
        outputs = Path(tmp) / "out"
        runs = [
            (command, config, outputs / command / config.stem)
            for command in COMMANDS
            for config in sorted((CONFIGS / command).glob("*.json"))
        ]
        # Each reseeded copy sits next to a copy of configs/tuned, so its
        # "../tuned/..." references resolve as the original's do.
        configs = Path(tmp) / "configs"
        shutil.copytree(CONFIGS / "tuned", configs / "tuned")
        for seed in ROBUSTNESS_SEEDS:
            for config in sorted((CONFIGS / "robustness").glob("*.json")):
                copy = configs / f"robustness@{seed}" / config.name
                copy.parent.mkdir(exist_ok=True)
                copy.write_text(json.dumps({**json.loads(config.read_text()), "seed": seed}))
                runs.append(("robustness", copy, outputs / copy.parent.name / config.stem))
        for command, config, out in runs:
            code = cli_main([command, "--config", str(config), "--out", str(out)])
            if code != 0:
                raise SystemExit(f"{command} {config} failed with exit code {code}")
        return {
            path.relative_to(outputs).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outputs.rglob("*"))
            if path.is_file()
        }


def _openblas() -> dict[str, str]:
    """OpenBLAS's runtime configuration and core, asked of the
    scipy-openblas library that numpy's wheel bundles; "unknown" where
    there is none."""
    found = {"openblas_config": "unknown", "openblas_core": "unknown"}
    for library in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*scipy_openblas*")):
        blas = ctypes.CDLL(str(library))
        for key, name in (("openblas_config", "get_config"), ("openblas_core", "get_corename")):
            ask = getattr(blas, f"scipy_openblas_{name}64_")
            ask.restype = ctypes.c_char_p
            found[key] = ask().decode()
    return found


def numerics_profile() -> dict[str, str]:
    """What the bits of the outputs rest on besides the code: OpenBLAS's
    runtime configuration and core, numpy's version and the SIMD targets
    numpy runs (its baseline and each dispatch target this CPU has)."""
    features = _multiarray_umath.__cpu_features__
    targets = [*_multiarray_umath.__cpu_baseline__, *(t for t in _multiarray_umath.__cpu_dispatch__ if features[t])]
    return {**_openblas(), "numpy": np.__version__, "simd": " ".join(targets)}


def _describe(profile: dict) -> str:
    return "; ".join(f"{key} {value}" for key, value in sorted(profile.items()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true", help="compare fresh digests with the stored file instead of writing it"
    )
    args = parser.parse_args()
    fresh, profile = digests(), numerics_profile()
    if not args.check:
        DIGESTS.parent.mkdir(parents=True, exist_ok=True)
        with open(DIGESTS, "w", newline="") as fh:
            fh.write(json.dumps({"numerics": profile, "digests": fresh}, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(fresh)} output digests to {DIGESTS}", file=sys.stderr)
        return 0
    stored = json.loads(DIGESTS.read_text())
    diff = report(stored, fresh, profile)
    return 1 if diff else 0


def report(stored: dict, fresh: dict[str, str], profile: dict[str, str]) -> list[str]:
    """Print every output whose digest differs from the stored file's, or
    that only one side has, and their count; on any difference, name the
    stored numerics profile and this one.  Returns the differing names."""
    digests = stored["digests"]
    diff = sorted(name for name in digests.keys() | fresh.keys() if digests.get(name) != fresh.get(name))
    for name in diff:
        print(f"differs: {name}", file=sys.stderr)
    print(f"{len(diff)} bundled output(s) differ from the stored digests", file=sys.stderr)
    if diff:
        same = " (the same)" if stored["numerics"] == profile else ""
        print(f"numerics profile of the stored digests: {_describe(stored['numerics'])}", file=sys.stderr)
        print(f"numerics profile of this run{same}: {_describe(profile)}", file=sys.stderr)
    return diff


if __name__ == "__main__":
    sys.exit(main())
