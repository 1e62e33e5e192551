"""Every public symbol has a caller or a test."""

import ast
import pathlib
import types

import causalflag

ROOT = pathlib.Path(__file__).resolve().parents[1]


def exported_names():
    """The names the package exports: its public module attributes that are not modules."""
    return sorted(name for name, value in vars(causalflag).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType))


def references(path, skip_definitions):
    """Names read in a file (bare names and attributes).

    With skip_definitions, a name read inside the top-level function or
    class that defines it (a recursion, a classmethod) does not count.
    """
    tree = ast.parse(path.read_text())
    found = set()
    for top in tree.body:
        own = getattr(top, "name", None) if skip_definitions else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                found.add(name)
    return found


def test_every_exported_name_has_a_caller_or_a_test():
    package = pathlib.Path(causalflag.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":  # the export itself is no use
            used |= references(path, skip_definitions=True)
    for path in (ROOT / "tests").glob("*.py"):
        if path.name != pathlib.Path(__file__).name:
            used |= references(path, skip_definitions=False)
    assert len(exported_names()) > 50
    assert [name for name in exported_names() if name not in used] == []
