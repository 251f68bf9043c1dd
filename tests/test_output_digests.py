"""Every output of the bundled configs must keep the bytes pinned in
tests/data/output_digests.json by scripts/output_digests.py."""
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_bundled_outputs_match_the_pinned_digests():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "output_digests.py"), "--check"],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "0 bundled output(s) differ" in proc.stderr
