"""The benchmark tracer wraps loopfield functions by name; each name must resolve.

`perfbench/tracing.py` lists its targets in LAYERS.  A rename in loopfield
would otherwise surface only in the slow `perfbench/tests` run.  The tracer
re-binds module attributes only, so a traced function that loopfield also
keeps inside a module-level container would run untraced when called
through it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


def _targets():
    """(name, holder dict, attribute) of every traced target."""
    for _, mod_name, targets, _ in _layers():
        module = importlib.import_module(f"loopfield.{mod_name}")
        for target in targets:
            owner, _, attr = target.rpartition(".")
            holder = vars(getattr(module, owner)) if owner else vars(module)
            yield f"{mod_name}.{target}", holder, attr


def test_every_traced_target_resolves():
    missing = [name for name, holder, attr in _targets()
               if not callable(holder.get(attr))]
    assert not missing, missing


def _contained(value, seen):
    """Every item inside a (nested) dict, list, tuple or set."""
    if not isinstance(value, (dict, list, tuple, set, frozenset)) or id(value) in seen:
        return
    seen.add(id(value))
    items = (list(value.keys()) + list(value.values()) if isinstance(value, dict)
             else value)
    for item in items:
        yield item
        yield from _contained(item, seen)


def test_no_traced_target_inside_a_module_level_container():
    importlib.import_module("loopfield.harness")  # imports every layer
    traced = {id(holder[attr]): name for name, holder, attr in _targets()}
    held = []
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not mod_name.startswith("loopfield"):
            continue
        for attr, value in vars(module).items():
            for item in _contained(value, set()):
                if id(item) in traced:
                    held.append(f"{mod_name}.{attr} holds {traced[id(item)]}")
    assert not held, held
