"""Per-layer spans for the traced benchmark run.

The tracer replaces each layer function listed in LAYERS by a timing
wrapper in every ``hypercongruence`` module that holds a reference to it,
which is where its callers look it up, and puts the originals back when
the ``installed()`` block ends.  The library's source is not touched.

A span's self time is its duration minus the durations of the spans it
called directly, so the self times of all spans add up to the durations
of the root spans (``pipeline.congruence_test_4d``).
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

ROOT = ("pipeline", "congruence_test_4d")
LAYERS = (
    ROOT,
    ("condense", "joint_cluster"),
    ("cpgraph", "closest_pair_graph"),
    ("iterprune", "iterative_prune"),
    ("circles", "mirror_reduce"),
    ("circles", "orbit_circles"),
    ("marking", "mark_circles"),
    ("lowdim", "one_plus_three_reduce"),
    ("lowdim", "congruence_3d_labeled"),
    ("lowdim", "collapse_circle"),
    ("sphere", "condense_sphere"),
    ("torus", "two_plus_two_reduce"),
    ("torus", "canonical_set_torus"),
    ("geom", "verify_rotation"),
    ("geom", "match_multisets"),
)


def _observe_prune(counts: Counter, args, result) -> None:
    counts["iterprune.points_in"] += len(args[0])
    counts["iterprune.points_out"] += len(result[0].points)


def _observe_one_plus_three(counts: Counter, args, result) -> None:
    counts["lowdim.one_plus_three_reduce.congruent"] += bool(result.congruent)


def _observe_verify(counts: Counter, args, result) -> None:
    counts["geom.verify_rotation.ok"] += bool(result)


OBSERVERS = {
    "iterprune.iterative_prune": _observe_prune,
    "lowdim.one_plus_three_reduce": _observe_one_plus_three,
    "geom.verify_rotation": _observe_verify,
}


@dataclass
class SpanStat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Aggregates spans by name; ``reset()`` starts a new pass."""

    def __init__(self) -> None:
        self.stats: dict = {}
        self.counts: Counter = Counter()
        self._stack: list = []

    def reset(self) -> None:
        self.stats = {f"{m}.{f}": SpanStat() for m, f in LAYERS}
        self.counts = Counter()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                st = self.stats[name]
                st.calls += 1
                st.s += dt
                st.self_s += dt - children[0]
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return span

    @contextmanager
    def installed(self):
        """Wrap every layer function at each of its import sites."""
        package = sys.modules["hypercongruence"]
        modules = [m for k, m in sys.modules.items()
                   if k.startswith("hypercongruence.")] + [package]
        wrappers = {}
        for mod, fn in LAYERS:
            original = getattr(sys.modules[f"hypercongruence.{mod}"], fn)
            wrappers[id(original)] = self._wrap(f"{mod}.{fn}", original)
        patched = []
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)
