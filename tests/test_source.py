"""Static checks of the package source."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ergclt"


def test_every_definition_is_read():
    """Every function, method and class in `src/ergclt` is named somewhere
    in `src/ergclt` as a name, an attribute or an import, so nothing there
    is kept only for tests.  Dunders are exempt; what `__init__` imports
    and so exports counts as read."""
    defined, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.update((node.name, node.asname))
    unread = {name: where for name, where in defined.items()
              if name not in read and not (name.startswith("__") and name.endswith("__"))}
    assert unread == {}


def test_every_import_is_read():
    """Each module but `__init__` (whose imports are its exports) reads every
    name it imports, so a leftover import after a move is caught."""
    unread = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported, read = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Name):
                read.add(node.id)
        unread.update({name: where for name, where in imported.items() if name not in read})
    assert unread == {}


def test_transfer_iterates_are_read_in_two_loops():
    """`.iterates(` is called in `src/ergclt` only inside
    `clt.partial_sum_norms` and `clt.autocovariance_sequence`: every other
    route takes its partial sums or lag integrals from one of those two
    loops, not from a loop of its own."""
    loops = {"partial_sum_norms", "autocovariance_sequence"}
    stray, reading = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {}
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name in loops and path.name == "clt.py":
                inside.update((id(node), func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "iterates":
                if id(node) in inside:
                    reading.add(inside[id(node)])
                else:
                    stray.append(f"{path.name}:{node.lineno}")
    assert stray == []
    assert reading == loops
