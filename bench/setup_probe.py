"""Time optbench's set-up in a fresh interpreter: import the package and
its CLI, then load_plan every config given.  Prints the seconds taken.

Usage: python3 bench/setup_probe.py SRC_DIR CONFIG [CONFIG ...]
"""
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import optbench.cli  # noqa: E402

for path in sys.argv[2:]:
    optbench.cli.load_plan(path)
print(repr(time.perf_counter() - t0))
