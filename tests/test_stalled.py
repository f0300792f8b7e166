"""One internal error: condensing steps raise geom.Stalled, and nothing on
the 1+3 fallback path that catches it raises it again."""

import ast
from pathlib import Path

import hypercongruence

SRC = Path(hypercongruence.__file__).parent
# one_plus_three_reduce runs on these modules alone
FALLBACK = ("lowdim.py", "sphere.py", "condense.py", "geom.py")


def _raises(name: str) -> list:
    """'module:line' of every ``raise name`` or ``raise name(...)``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name) and exc.id == name:
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_assertion_error_is_raised():
    assert _raises("AssertionError") == []


def test_no_stall_on_the_fallback_path():
    sites = _raises("Stalled")
    assert sites
    assert [s for s in sites if s.split(":")[0] in FALLBACK] == []
