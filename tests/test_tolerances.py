"""Every fixed tolerance is named once, in the table at the top of geom."""

import ast
import re
from pathlib import Path

import hypercongruence

SRC = Path(hypercongruence.__file__).parent
DERIVED = ("match_tol", "radius_tol", "angle_tol", "key_tol")


def _table(tree: ast.Module) -> list:
    """The module-level NAME = <float literal> assignments of a module."""
    return [node for node in tree.body if isinstance(node, ast.Assign)
            and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, float)]


def _trees() -> dict:
    return {p.name: ast.parse(p.read_text())
            for p in sorted(SRC.glob("*.py"))}


def test_no_tolerance_literal_outside_the_geom_table():
    found = []
    for name, tree in _trees().items():
        allowed = ({id(n) for node in _table(tree) for n in ast.walk(node)}
                   if name == "geom.py" else set())
        found += [f"{name}:{n.lineno}: {n.value!r}" for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and isinstance(n.value, float)
                  and 0 < abs(n.value) < 1e-5 and id(n) not in allowed]
    assert found == []


def test_table_names_are_defined_in_geom_only_and_read():
    trees = _trees()
    names = {node.targets[0].id for node in _table(trees["geom.py"])}
    names |= set(DERIVED)
    for name, tree in trees.items():
        if name == "geom.py":
            continue
        defined = {t.id for node in tree.body if isinstance(node, ast.Assign)
                   for t in node.targets if isinstance(t, ast.Name)}
        defined |= {node.name for node in tree.body
                    if isinstance(node, ast.FunctionDef)}
        assert not defined & names, name
    text = "\n".join(p.read_text() for p in SRC.glob("*.py"))
    unread = [n for n in sorted(names)
              if len(re.findall(rf"\b{n}\b", text)) < 2]
    assert unread == []
