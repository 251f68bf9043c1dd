"""Pin the bytes of every output the bundled configs write.

Runs each bundled tune, robustness, scan and train-toy config under
configs/ through the CLI, at the seeds the configs carry, and records the
sha256 of every file it writes in tests/data/output_digests.json, so a
change that must leave every output bit the same can show it with one
command.

Usage: python3 scripts/output_digests.py [--check]

--check recomputes the digests and compares them with the stored file
instead of writing it; it exits 1 and lists every output that differs,
is missing or is extra.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from optbench.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
DIGESTS = ROOT / "tests" / "data" / "output_digests.json"
# The bundled configs that run as a command of the same name; configs/tuned
# holds the specs they reference.
COMMANDS = ("tune", "robustness", "scan", "train-toy")


def digests() -> dict[str, str]:
    """The sha256 of every output file of every bundled config, keyed by
    command/config/file."""
    with tempfile.TemporaryDirectory(prefix="optbench-digests-") as tmp:
        outputs = Path(tmp)
        for command in COMMANDS:
            for config in sorted((CONFIGS / command).glob("*.json")):
                argv = [command, "--config", str(config), "--out", str(outputs / command / config.stem)]
                code = cli_main(argv)
                if code != 0:
                    raise SystemExit(f"{command} {config.name} failed with exit code {code}")
        return {
            path.relative_to(outputs).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outputs.rglob("*"))
            if path.is_file()
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true", help="compare fresh digests with the stored file instead of writing it"
    )
    args = parser.parse_args()
    fresh = digests()
    if not args.check:
        DIGESTS.parent.mkdir(parents=True, exist_ok=True)
        with open(DIGESTS, "w", newline="") as fh:
            fh.write(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(fresh)} output digests to {DIGESTS}", file=sys.stderr)
        return 0
    stored = json.loads(DIGESTS.read_text())
    diff = sorted(name for name in stored.keys() | fresh.keys() if stored.get(name) != fresh.get(name))
    for name in diff:
        print(f"differs: {name}", file=sys.stderr)
    print(f"{len(diff)} bundled output(s) differ from the stored digests", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
