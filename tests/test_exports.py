"""No dead exports: every module-level function, class and assignment of the
package is read somewhere in the package outside its own definition.  A
use in its own module counts; a re-export in ``__init__`` does not.  The
only names kept without a reader are the layers of the traced benchmark
(``perfbench/tracing.py``), which wraps them by name; that module is read,
never changed, as ``test_tracing.py`` reads it."""

import ast
import importlib.util
import sys
from pathlib import Path

import hypercongruence

SRC = Path(hypercongruence.__file__).parent
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layers() -> set:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look it up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return set(module.LAYERS)


def _definitions(tree: ast.Module) -> list:
    """(name, node) of every module-level function, class and assignment."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            found += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return found


def _reads(tree: ast.Module, module: str) -> list:
    """((module, name), node) of every read in a package module: its own
    names, the names it imports from sibling modules (aliases resolved)
    and attributes of sibling modules it imports whole."""
    imported, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    imported[local] = (node.module, alias.name)
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.append((imported.get(node.id, (module, node.id)), node))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            reads.append(((modules[node.value.id], node.attr), node))
    return reads


def test_every_module_level_name_is_read():
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"}
    readers = {}
    for module, tree in trees.items():
        for key, node in _reads(tree, module):
            readers.setdefault(key, []).append(node)
    exempt = _layers()
    dead = []
    for module, tree in trees.items():
        for name, definition in _definitions(tree):
            inside = {id(n) for n in ast.walk(definition)}
            outside = [n for n in readers.get((module, name), [])
                       if id(n) not in inside]
            if not outside and (module, name) not in exempt:
                dead.append(f"{module}.{name}")
    assert dead == []

