"""Golden verdicts and stage-key streams for one small instance per exit.

``stage_streams.json`` holds, for every case below, the verdict and the
full ``trace_sink`` stream of ``(stage, key_a, key_b)`` tuples that
``congruence_test_4d`` produced when the file was recorded.  A refactor
that keeps behaviour keeps both; any change to a decision or to a key
shows up here as a diff against the recorded stream.
"""

import ast
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import chiral_helix, snub_24_cell, two_helices
from hypercongruence import pipeline
from hypercongruence.harness import (gen_orbit_helix, gen_regular_polytope,
                                     gen_torus_grid, random_rotation)
from hypercongruence.iterprune import iterative_prune, prune_steps
from hypercongruence.pipeline import PipelineOptions, congruence_test_4d

GOLDEN = Path(__file__).with_name("stage_streams.json")
MIRROR_X1 = np.diag([-1.0, 1.0, 1.0, 1.0])


def _grid_with_hexagon() -> np.ndarray:
    """A torus grid plus a regular hexagon in its first coordinate plane, so
    the 2+2 reduction offsets the torus angles against a plane circle."""
    th = 2 * np.pi * np.arange(6) / 6
    hexagon = 0.9 * np.c_[np.cos(th), np.sin(th), np.zeros(6), np.zeros(6)]
    return np.concatenate([gen_torus_grid(6, 5, 0.6), hexagon])


def _great_polygons(k: int, n: int, seed: int) -> np.ndarray:
    """k regular n-gons on random great circles.  For seed 13 no two
    polygons come closer than their edge, so the polygons are the mirror
    circles; one closest pair of them is not isoclinic (M7) and its marks
    restart the pipeline."""
    rng = np.random.default_rng(seed)
    th = 2 * np.pi * np.arange(n) / n
    return np.concatenate([np.cos(th)[:, None] * f[0] + np.sin(th)[:, None] * f[1]
                           for f in (random_rotation(rng)[:2] for _ in range(k))])


# name -> (points, pipeline options, compare against the mirror image)
CASES = {
    "well_separated": (gen_regular_polytope("24-cell"), None, False),
    "mirror_anchors": (gen_regular_polytope("16-cell"),
                       PipelineOptions(delta0=1.5), False),
    "mirror": (np.array(list(itertools.product([-0.5, 0.5], repeat=4))),
               PipelineOptions(delta0=1.5, few_cap=8), False),
    "orbit": (chiral_helix(), PipelineOptions(delta0=1.0, few_cap=8), False),
    "orbit_merged_circles": (two_helices(),
                             PipelineOptions(delta0=1.0, few_cap=8), False),
    "orbit_mirror_negative": (chiral_helix(),
                              PipelineOptions(delta0=1.0, few_cap=8), True),
    "two_plus_two": (gen_orbit_helix(40, 9, 0.8),
                     PipelineOptions(delta0=1.0, few_cap=3), False),
    "two_plus_two_plane_circle": (_grid_with_hexagon(),
                                  PipelineOptions(delta0=1.5, few_cap=8), False),
    "torus_grid": (gen_torus_grid(7, 6, 0.7),
                   PipelineOptions(delta0=1.0, few_cap=8), False),
    "cross_pair_markers": (snub_24_cell(),
                           PipelineOptions(delta0=0.7, few_cap=8), False),
    "markers_restart": (_great_polygons(6, 60, 13),
                        PipelineOptions(delta0=1.01 * 2 * math.sin(math.pi / 60),
                                        few_cap=4), False),
}


def run_case(name: str) -> tuple:
    """(verdict summary, stream) of one case on a seeded placement."""
    a, opts, mirrored = CASES[name]
    rng = np.random.default_rng(7)
    b = a @ random_rotation(rng).T + rng.normal(size=4)
    if mirrored:
        b = b @ MIRROR_X1
    b = b[rng.permutation(len(b))]
    sink: list = []
    v = congruence_test_4d(a, b, opts, trace_sink=sink)
    return [bool(v.congruent), v.stage], sink


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert set(golden) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_verdict_and_stream_match_golden(name, golden):
    verdict, stream = run_case(name)
    assert verdict == golden[name]["verdict"]
    assert stream == ast.literal_eval(golden[name]["stream"])


@pytest.mark.parametrize("name", sorted(CASES))
def test_iterative_prune_is_drained_prune_steps(name, monkeypatch):
    # on every set the pipeline prunes, iterative_prune is prune_steps run
    # to its end
    calls = []
    real = pipeline.prune_steps
    monkeypatch.setattr(pipeline, "prune_steps",
                        lambda *args: calls.append(args) or real(*args))
    run_case(name)
    assert calls
    for args in calls:
        exit_, keys = iterative_prune(*args)
        steps, drained = prune_steps(*args), []
        while True:
            try:
                drained.append(next(steps))
            except StopIteration as stop:
                last = stop.value
                break
        assert drained == keys
        assert type(last) is type(exit_)
        assert np.array_equal(last.points, exit_.points)
