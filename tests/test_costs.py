"""One warm pass of each benchmark workload's bundled configs (tune,
sample-scan and train-toy) makes the calls that scripts/costs.py recorded
in tests/data/costs.json, function by function."""
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_workload_calls_match_the_ledger():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "costs.py"), "--check"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "0 call count(s) differ" in proc.stderr
