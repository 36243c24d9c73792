"""Every public name of src/loopfield is reached from outside the tests.

A name counts as reached when code outside tests/ refers to it: another
function or class of the package (cli.py included), a demo, or the
benchmark under perfbench/.  A reference is a name, an attribute, an
imported name or a string naming the target, as the benchmark tracer names
"module function" and "Class.method" targets.  References inside the
definition itself do not count.  A name that only the tests reach belongs
in the tests, with the oracles of tests/oracles.py.  Likewise every name
that an import binds in a module of src/loopfield is read there.
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


def _unused_imports(path):
    """(line, name) of each name that an import statement of the module
    binds and that no name in the module (or its __all__) reads.  A dotted
    `import a.b` without `as` only preloads a submodule, so it binds
    nothing to check."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname or "." not in alias.name:
                    bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_every_imported_name_is_used():
    unused = [f"{path.name}:{line} {name}" for path in sorted(PACKAGE.glob("*.py"))
              for line, name in _unused_imports(path)]
    assert not unused, unused
