"""Print the lines of ``src/hypercongruence`` that no tier-1 test and no
benchmark pair reaches.

``coverage`` is not a dependency, so this collects lines itself with
``sys.settrace``: it runs the tier-1 suite in process, then decides every
pair of ``perfbench/workloads.generate`` at seeds 0 and 1, and prints each
source line that compiles to code but never ran, as ``path:line: text``,
grouped into runs.  The last two lines count them, and separately those
outside ``raise`` statements, and count the ``raise AssertionError`` sites
and the ``raise Stalled`` sites of every module.  Run it from anywhere in a source checkout:

    python tools/unreached.py

Tracing makes the suite several times slower (about a minute for both
parts on a 2-core host).  It exits 1 when the tier-1 suite fails.
"""

from __future__ import annotations

import ast
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = str(SRC / "hypercongruence")
SEEDS = (0, 1)


def executable_lines(path: Path) -> set:
    """Line numbers that carry bytecode in the module or any code object
    nested in it."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(ln for _, _, ln in code.co_lines() if ln is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def raise_lines(path: Path) -> set:
    """Line numbers spanned by a ``raise`` statement."""
    return {ln for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise)
            for ln in range(node.lineno, node.end_lineno + 1)}


def raise_sites(path: Path, name: str) -> int:
    """The number of ``raise name`` statements, called or not."""
    count = 0
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            count += isinstance(exc, ast.Name) and exc.id == name
    return count


class LineCollector:
    """A trace function recording (file, line) for frames under PACKAGE."""

    def __init__(self) -> None:
        self.hits: set = set()

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(PACKAGE):
            return None
        self.hits.add((name, frame.f_lineno))
        return self._local

    def _local(self, frame, event, arg):
        self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local


def run_workloads() -> int:
    """Decide every benchmark pair at SEEDS; returns the pair count."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from hypercongruence.pipeline import PipelineOptions, congruence_test_4d

    count = 0
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for pair in workloads.generate(name, seed):
                opts = None if pair.delta0 is None else \
                    PipelineOptions(delta0=pair.delta0)
                congruence_test_4d(pair.a, pair.b, opts)
                count += 1
    return count


def report(hits: set) -> tuple:
    """Print the unreached runs of every module; returns the line count and
    the count of those outside raise statements."""
    total = outside = 0
    for path in sorted(Path(PACKAGE).glob("*.py")):
        seen = {ln for f, ln in hits if f == str(path)}
        missing = sorted(executable_lines(path) - seen)
        text = path.read_text().splitlines()
        rel = path.relative_to(ROOT)
        runs: list = []
        for ln in missing:
            if runs and ln == runs[-1][-1] + 1:
                runs[-1].append(ln)
            else:
                runs.append([ln])
        for run in runs:
            for ln in run:
                print(f"{rel}:{ln}: {text[ln - 1].strip()}")
            print()
        total += len(missing)
        outside += len(set(missing) - raise_lines(path))
    return total, outside


def main() -> int:
    import pytest

    sys.path.insert(0, str(SRC))
    collector = LineCollector()
    sys.settrace(collector)
    try:
        status = int(pytest.main(["-q", "-p", "no:cacheprovider",
                                  str(ROOT / "tests")]))
        pairs = run_workloads()
    finally:
        sys.settrace(None)
    total, outside = report(collector.hits)
    print(f"{total} unreached lines, {outside} outside raise statements; "
          f"tier-1 exit status {status}; "
          f"{pairs} benchmark pairs at seeds {SEEDS}")
    paths = sorted(Path(PACKAGE).glob("*.py"))
    asserts = sum(raise_sites(p, "AssertionError") for p in paths)
    sites = {p.stem: raise_sites(p, "Stalled") for p in paths}
    ranked = sorted((m for m in sites if sites[m]), key=lambda m: (-sites[m], m))
    print(f"{asserts} raise AssertionError sites; "
          f"{sum(sites.values())} raise Stalled sites: " +
          ", ".join(f"{m} {sites[m]}" for m in ranked))
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
