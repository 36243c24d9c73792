"""Every public name of src/loopfield is reached from outside the tests.

A name counts as reached when code outside tests/ refers to it: another
function or class of the package (cli.py included), a demo, or the
benchmark under perfbench/.  A reference is a name, an attribute, an
imported name or a string naming the target, as the benchmark tracer names
"module function" and "Class.method" targets.  References inside the
definition itself do not count.  A name that only the tests reach belongs
in the tests, with the oracles of tests/oracles.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "loopfield"
CALLERS = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py")))


def _public_definitions(path):
    """(qualified name, short name, first line, last line) of each public
    module-level definition and public method of a public class."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            assigned = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in assigned if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_"):
                continue
            yield name, name, node.lineno, node.end_lineno
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield (f"{name}.{item.name}", item.name, item.lineno,
                           item.end_lineno)


def _references(path):
    """(name, line) of every name, attribute, imported name and
    identifier-like string in a file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield parts[-1], node.lineno


def test_every_public_name_has_a_caller_outside_the_tests():
    refs = {path: list(_references(path)) for path in CALLERS}
    orphans = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name, first, last in _public_definitions(path):
            reached = any(ref == name and not (caller == path and first <= line <= last)
                          for caller, found in refs.items() for ref, line in found)
            if not reached:
                orphans.append(f"{path.stem}.{qualified}")
    assert not orphans, orphans
