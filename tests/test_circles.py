"""Circle extraction: mirror reduction, orbit cycles."""

import math

import numpy as np
import pytest

from hypercongruence.circles import (
    CondensedPoints,
    GreatCircles,
    fit_rotation,
    mirror_reduce,
    orbit_circles,
)
from hypercongruence.cpgraph import closest_pair_graph
from hypercongruence.geom import decompose_rotation
from hypercongruence.harness import random_rotation
from hypercongruence.iterprune import (
    DirectedGraph,
    EdgeTransitive,
    MirrorSymmetric,
    iterative_prune,
)


def both_ways(edges, n):
    arcs = frozenset(tuple(e) for e in edges)
    return DirectedGraph(n, arcs | frozenset((b, a) for a, b in arcs))


def torus_grid(p, q, r1, r2):
    th = 2 * np.pi * np.arange(p) / p
    ph = 2 * np.pi * np.arange(q) / q
    return np.array([[r1 * math.cos(a), r1 * math.sin(a),
                      r2 * math.cos(b), r2 * math.sin(b)]
                     for a in th for b in ph])


class TestFitRotation:
    def frame(self, rng):
        tri = rng.normal(size=(3, 4))
        return tri / np.linalg.norm(tri, axis=1, keepdims=True)

    def test_roundtrip(self, rng):
        for _ in range(10):
            tri = self.frame(rng)
            r = random_rotation(rng)
            rot = fit_rotation(tri, tri @ r.T)
            assert np.max(np.abs(rot - r)) < 1e-9
            assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_identity(self, rng):
        tri = self.frame(rng)
        rot = fit_rotation(tri, tri)
        assert np.allclose(rot, np.eye(4), atol=1e-9)

    def test_concyclic_template_rejected(self):
        cc = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                       [1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0]])
        with pytest.raises(ValueError):
            fit_rotation(cc, cc)


def small_circle_polygon(center, k, r, e1, e2, phase=0.0):
    th = phase + 2 * np.pi * np.arange(k) / k
    return center + r * (np.cos(th)[:, None] * e1 + np.sin(th)[:, None] * e2)


class TestMirrorReduce:
    def test_eccentric_components_to_centers(self):
        # two triangles on small circles centred at +-0.9 e1
        e1 = np.array([0, 1.0, 0, 0])
        e2 = np.array([0, 0, 1.0, 0])
        r = math.sqrt(1 - 0.81)
        pts = np.vstack([
            small_circle_polygon(np.array([0.9, 0, 0, 0]), 3, r, e1, e2),
            small_circle_polygon(np.array([-0.9, 0, 0, 0]), 3, r, e1, e2,
                                 phase=0.3),
        ])
        g = both_ways([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], 6)
        res, keys = mirror_reduce(pts, g)
        assert isinstance(res, CondensedPoints)
        assert keys
        got = sorted(map(tuple, np.round(res.points, 9)))
        want = sorted([(0.9, 0, 0, 0), (-0.9, 0, 0, 0)])
        assert np.allclose(got, want, atol=1e-9)

    def test_pentagon_to_great_circle(self, rng):
        th = 2 * np.pi * np.arange(5) / 5
        pent = np.stack([np.cos(th), np.sin(th),
                         np.zeros(5), np.zeros(5)], axis=1)
        r4 = random_rotation(rng)
        g = both_ways([(i, (i + 1) % 5) for i in range(5)], 5)
        res, keys = mirror_reduce(pent @ r4.T, g)
        assert isinstance(res, GreatCircles)
        assert len(res.circles) == 1
        p = res.circles[0].basis.T @ res.circles[0].basis
        pexp = r4 @ np.diag([1.0, 1, 0, 0]) @ r4.T
        assert np.max(np.abs(p - pexp)) < 1e-9

    def test_octahedron_to_antipodal_normals(self, rng):
        octa = np.concatenate([np.eye(4)[:3], -np.eye(4)[:3]])
        r4 = random_rotation(rng)
        ex, _ = iterative_prune(octa @ r4.T, delta0=1.5)
        assert isinstance(ex, MirrorSymmetric)
        res, keys = mirror_reduce(ex.points, ex.graph)
        assert isinstance(res, CondensedPoints)
        norm_exp = r4 @ np.array([0, 0, 0, 1.0])
        errs = [min(np.max(np.abs(p - norm_exp)), np.max(np.abs(p + norm_exp)))
                for p in res.points]
        assert len(res.points) == 2
        assert max(errs) < 1e-9

    def test_square_grid_to_both_torus_circles(self, rng):
        g88 = torus_grid(8, 8, 1 / math.sqrt(2), 1 / math.sqrt(2))
        r4 = random_rotation(rng)
        ex, _ = iterative_prune(g88 @ r4.T, delta0=2.0)
        assert isinstance(ex, MirrorSymmetric)
        res, _ = mirror_reduce(ex.points, ex.graph)
        assert isinstance(res, GreatCircles)
        assert len(res.circles) == 2
        projs = [c.basis.T @ c.basis for c in res.circles]
        exp1 = r4 @ np.diag([0.0, 0, 1, 1]) @ r4.T
        exp2 = r4 @ np.diag([1.0, 1, 0, 0]) @ r4.T
        err = min(
            np.max(np.abs(projs[0] - exp1)) + np.max(np.abs(projs[1] - exp2)),
            np.max(np.abs(projs[0] - exp2)) + np.max(np.abs(projs[1] - exp1)))
        assert err < 1e-9

    def test_rect_grid_equal_edges(self, rng):
        # radii tuned so that both grid directions have the same step length
        s = math.sin(math.pi / 8) / math.sin(math.pi / 4)
        r1 = s / math.sqrt(1 + s * s)
        r2 = 1 / math.sqrt(1 + s * s)
        g48 = torus_grid(4, 8, r1, r2)
        cp = closest_pair_graph(g48)
        assert len(cp.edges) == 4 * 8 * 2
        r4 = random_rotation(rng)
        arcs = frozenset(map(tuple, cp.edges))
        g = DirectedGraph(32, arcs | frozenset((b, a) for a, b in arcs))
        res, _ = mirror_reduce(g48 @ r4.T, g)
        assert isinstance(res, GreatCircles)
        assert len(res.circles) == 2

    def test_keys_equal_under_rotation(self, rng):
        th = 2 * np.pi * np.arange(5) / 5
        pent = np.stack([np.cos(th), np.sin(th),
                         np.zeros(5), np.zeros(5)], axis=1)
        g = both_ways([(i, (i + 1) % 5) for i in range(5)], 5)
        _, k0 = mirror_reduce(pent, g)
        _, k1 = mirror_reduce(pent @ random_rotation(rng).T, g)
        assert k0 == k1


class TestOrbitCircles:
    def run_helix(self, rng=None):
        t = 2 * np.pi * np.arange(40) / 40
        h = np.stack([np.cos(t), np.sin(t),
                      np.cos(2 * t), np.sin(2 * t)], axis=1) / math.sqrt(2)
        r4 = np.eye(4) if rng is None else random_rotation(rng)
        ex, _ = iterative_prune(h @ r4.T, delta0=1.0)
        assert isinstance(ex, EdgeTransitive)
        return ex, r4

    def test_cycle_rotation_angles(self):
        ex, _ = self.run_helix()
        cycles, keys = orbit_circles(ex.points, ex.graph, ex.delta, ex.alpha,
                                     ex.tau0)
        assert keys
        assert cycles
        want = {round(2 * np.pi / 40, 9), round(4 * np.pi / 40, 9)}
        for c in cycles:
            dec = decompose_rotation(c.rotation)
            assert {round(a, 9) for a in dec.angles} == want
            assert len(c.vertices) == 40

    def test_cycle_circle_is_slow_plane(self, rng):
        ex, r4 = self.run_helix(rng)
        cycles, _ = orbit_circles(ex.points, ex.graph, ex.delta, ex.alpha,
                                  ex.tau0)
        # the invariant circle tracks the plane of the smaller turning angle
        pexp = r4 @ np.diag([1.0, 1, 0, 0]) @ r4.T
        for c in cycles:
            p = c.circle.basis.T @ c.circle.basis
            assert np.max(np.abs(p - pexp)) < 1e-7

    def test_circle_budget(self):
        ex, _ = self.run_helix()
        cycles, _ = orbit_circles(ex.points, ex.graph, ex.delta, ex.alpha,
                                  ex.tau0)
        assert len(cycles) <= max(1, len(ex.points) // 200) * 40
        seen = {tuple(sorted(c.vertices)) for c in cycles}
        assert len(seen) == len(cycles)

    def test_keys_equal_under_rotation(self, rng):
        ex0, _ = self.run_helix()
        ex1, _ = self.run_helix(rng)
        _, k0 = orbit_circles(ex0.points, ex0.graph, ex0.delta, ex0.alpha,
                              ex0.tau0)
        _, k1 = orbit_circles(ex1.points, ex1.graph, ex1.delta, ex1.alpha,
                              ex1.tau0)
        assert k0 == k1
