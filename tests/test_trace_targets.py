"""The benchmark tracer wraps loopfield functions by name; each name must resolve.

`perfbench/tracing.py` lists its targets in LAYERS.  A rename in loopfield
would otherwise surface only in the slow `perfbench/tests` run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for _, mod_name, targets, _ in tracing.LAYERS:
        module = importlib.import_module(f"loopfield.{mod_name}")
        for target in targets:
            owner, _, attr = target.rpartition(".")
            holder = vars(getattr(module, owner)) if owner else vars(module)
            if not callable(holder.get(attr)):
                missing.append(f"{mod_name}.{target}")
    assert not missing, missing
