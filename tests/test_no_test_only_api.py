"""No test-only API in ``src/``: every definition in ``src/stabcert`` has a user
outside the tests.

A module-level function or class, or a method that is not a dunder, counts as
used when its name appears somewhere in ``src/stabcert`` or ``bench/`` as a
name, an attribute or an imported name.  The match is by name only, so a
definition whose name another object's attribute shares passes unseen; a
definition only the tests call fails.  A fact that holds for every input is
proved in the tests, with its code there too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "stabcert").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions(tree: ast.Module):
    """(qualified name, name) of each module-level function and class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def used_names() -> set[str]:
    names = set()
    for path in USERS:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_every_definition_in_src_has_a_user_outside_the_tests():
    used = used_names()
    defined = {f"{path.stem}.{qualified}": name for path in SOURCES for qualified, name in definitions(parse(path))}
    assert len(defined) > 100  # the walk found the package
    assert sorted(qualified for qualified, name in defined.items() if name not in used) == []

