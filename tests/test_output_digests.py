"""Every output of the bundled configs must keep the bytes pinned in
tests/data/output_digests.json by scripts/output_digests.py, which also
records the numerics profile that made them."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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


def _script():
    spec = importlib.util.spec_from_file_location("output_digests", REPO / "scripts" / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_digests_record_their_numerics_profile_and_a_mismatch_names_both(capsys):
    script = _script()
    stored = json.loads((REPO / "tests" / "data" / "output_digests.json").read_text())
    assert set(stored["numerics"]) == {"numpy", "openblas_config", "openblas_core", "simd"}
    profile = script.numerics_profile()
    assert set(profile) == set(stored["numerics"]) and profile["numpy"] == np.__version__
    name = min(stored["digests"])
    other = {**stored, "numerics": {**stored["numerics"], "openblas_core": "Prescott"}}
    assert script.report(other, {**stored["digests"], name: "0" * 64}, profile) == [name]
    err = capsys.readouterr().err
    assert f"differs: {name}\n1 bundled output(s) differ" in err
    assert "numerics profile of the stored digests: " in err and "openblas_core Prescott" in err
    assert f"numerics profile of this run: {script._describe(profile)}" in err
    assert script.report(stored, stored["digests"], profile) == []
    assert "numerics profile" not in capsys.readouterr().err
