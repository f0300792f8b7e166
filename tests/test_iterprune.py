"""Iterative pruning of unit-sphere sets and its figure codes."""

import math

import numpy as np
import pytest

from hypercongruence.geom import CONSTANTS
from hypercongruence.harness import (
    gen_orbit_helix,
    gen_regular_polytope,
    gen_torus_grid,
    random_rotation,
)
from hypercongruence.cpgraph import closest_pair_graph
from hypercongruence.iterprune import (
    DirectedGraph,
    EdgeTransitive,
    MirrorSymmetric,
    WellSeparated,
    edge_figure_codes,
    iterative_prune,
)


def unit_rows(pts):
    pts = np.asarray(pts, float)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def undirected(graph):
    return {(min(a), max(a)) for a in graph.arcs}


def graph_of(points):
    g = closest_pair_graph(points)
    arcs = frozenset((i, j) for i, j in g.edges) | frozenset(
        (j, i) for i, j in g.edges)
    return DirectedGraph(len(points), arcs)


class TestFigureCodes:
    def test_codes_equal_under_rotation(self, rng):
        cube = unit_rows(gen_regular_polytope("4-cube"))
        r = random_rotation(rng)
        g = graph_of(cube)
        gr = graph_of(cube @ r.T)
        assert undirected(g) == undirected(gr)
        codes, codes_r = edge_figure_codes(cube, g), edge_figure_codes(cube @ r.T, gr)
        for arc in sorted(g.arcs)[:6]:
            assert codes[arc] == codes_r[arc]

    def test_four_cube_arcs_all_one_code(self):
        cube = unit_rows(gen_regular_polytope("4-cube"))
        g = graph_of(cube)
        assert len(g.arcs) == 64
        assert len(set(edge_figure_codes(cube, g).values())) == 1

    def test_arc_orientation_matters(self):
        # path 0-1-2 with unequal leg lengths at the middle vertex
        pts = unit_rows([[1, 0, 0, 0],
                         [math.cos(0.8), math.sin(0.8), 0, 0],
                         [math.cos(0.8 + 1.1) * math.cos(0.2),
                          math.sin(0.8 + 1.1) * math.cos(0.2),
                          math.sin(0.2), 0]])
        g = DirectedGraph(3, frozenset({(0, 1), (1, 0), (1, 2), (2, 1)}))
        codes = edge_figure_codes(pts, g)
        assert codes[(0, 1)] != codes[(1, 0)]


class TestIterativePrune:
    def test_well_separated_exit(self, rng):
        # generic directions: every pairwise distance exceeds delta0
        pts = unit_rows(rng.normal(size=(40, 4)))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        assert d[np.triu_indices(40, 1)].min() > CONSTANTS.delta0
        exit_, keys = iterative_prune(pts)
        assert isinstance(exit_, WellSeparated)
        assert len(exit_.points) == 40
        assert keys

    def test_octahedron_in_hyperplane_mirror_exit(self):
        pts = np.zeros((6, 4))
        pts[:3, :3] = np.eye(3)
        pts[3:, :3] = -np.eye(3)
        exit_, _ = iterative_prune(pts, delta0=1.5)
        assert isinstance(exit_, MirrorSymmetric)
        # the exit hands the full set on to the mirror stage
        assert len(exit_.points) == 6
        assert len(undirected(exit_.graph)) == 12

    def test_flat_grid_mirror_exit(self):
        pts = unit_rows(gen_torus_grid(8, 8, 1 / math.sqrt(2)))
        exit_, _ = iterative_prune(pts, delta0=2.0)
        assert isinstance(exit_, (MirrorSymmetric, EdgeTransitive))

    def test_helix_edge_transitive_exit(self):
        # chiral orbit: frequencies 1 and 2 at equal radii has no achiral
        # edge figures, so pruning bottoms out at the transitive exit
        t = 2 * np.pi * np.arange(40) / 40
        pts = np.stack([np.cos(t), np.sin(t),
                        np.cos(2 * t), np.sin(2 * t)], axis=1) / math.sqrt(2)
        exit_, keys = iterative_prune(pts, delta0=1.0)
        assert isinstance(exit_, EdgeTransitive)
        assert exit_.graph.succ is not None
        assert exit_.delta <= 1.0
        assert keys

    def test_skew_helix_mirror_exit(self):
        # unequal radii with a high coprime frequency: the closest-pair
        # cycles carry achiral edge figures and leave through the mirror exit
        pts = unit_rows(gen_orbit_helix(40, 9, 0.8))
        exit_, _ = iterative_prune(pts, delta0=1.0)
        assert isinstance(exit_, MirrorSymmetric)

    def test_keys_equal_under_rotation(self, rng):
        for pts in (unit_rows(gen_orbit_helix(24, 5, 0.55)),
                    unit_rows(gen_regular_polytope("24-cell"))):
            _, keys = iterative_prune(pts, delta0=1.5)
            r = random_rotation(rng)
            _, keys_r = iterative_prune(pts @ r.T, delta0=1.5)
            assert keys == keys_r

    def test_keys_differ_for_incongruent(self):
        a = unit_rows(gen_orbit_helix(30, 7, 0.6))
        b = unit_rows(gen_orbit_helix(30, 11, 0.6))
        _, ka = iterative_prune(a, delta0=1.0)
        _, kb = iterative_prune(b, delta0=1.0)
        assert ka != kb

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            iterative_prune(np.array([[1.0, 0, 0, 0]]))
