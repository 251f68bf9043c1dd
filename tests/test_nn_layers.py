"""scripts/nn_layers.py builds its timed calls against the current layer
signatures; each call runs once here, untimed."""
import importlib.util
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("nn_layers", REPO / "scripts" / "nn_layers.py")
nn_layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(nn_layers)


def test_every_timed_layer_runs_once():
    calls = nn_layers.layer_calls()
    assert list(calls) == ["forward", "backward", "step", "evaluate"]
    with np.errstate(over="ignore", invalid="ignore"):
        for call in calls.values():
            call()
