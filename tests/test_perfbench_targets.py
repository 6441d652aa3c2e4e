"""The benchmark's traced run (``perfbench/tracer.py``) replaces matconv
module attributes by name and fails at install if one is missing; this
checks every listed name against the package."""

import importlib
import importlib.util
from pathlib import Path

from matconv import frames

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod, attr, _ in tracer.TARGETS:
        owner = (frames.SymmetryGroup if mod == "SymmetryGroup"
                 else importlib.import_module(f"matconv.{mod}"))
        if not hasattr(owner, attr):
            missing.append(f"{mod}.{attr}")
    assert not missing
