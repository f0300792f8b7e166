"""Circle extraction: mirror reduction, orbit cycles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import arc_array, rebuilt_step
from hypercongruence.circles import (
    CondensedPoints,
    GreatCircles,
    cycle_circle,
    mirror_reduce,
    orbit_circles,
)
from hypercongruence.cpgraph import closest_pair_graph
from hypercongruence.geom import (Stalled, block_rotation, frame,
                                  pluecker_sorted)
from hypercongruence.harness import gen_orbit_helix, random_rotation
from hypercongruence.iterprune import (
    DirectedGraph,
    EdgeTransitive,
    MirrorSymmetric,
    iterative_prune,
    run_steps,
)


def both_ways(edges, n):
    arcs = {tuple(e) for e in edges}
    return DirectedGraph(n, arc_array(arcs | {(b, a) for a, b in arcs}))


def torus_grid(p, q, r1, r2):
    th = 2 * np.pi * np.arange(p) / p
    ph = 2 * np.pi * np.arange(q) / q
    return np.array([[r1 * math.cos(a), r1 * math.sin(a),
                      r2 * math.cos(b), r2 * math.sin(b)]
                     for a in th for b in ph])


def _trace_cycle(nbrs: list, start: int) -> list:
    """Vertex order of the cycle through start, given the two neighbours of
    every vertex (smaller first); steps to the smaller neighbour first."""
    order = [start]
    prev, cur = start, nbrs[start][0]
    while cur != start:
        order.append(cur)
        a, b = nbrs[cur]
        prev, cur = cur, b if a == prev else a
    return order


def projector(plane):
    return plane.T @ plane


SLOW_12 = np.diag([1.0, 1, 0, 0])
SLOW_34 = np.diag([0.0, 0, 1, 1])


def block_orbit(ell, a, b, s, r1=0.6, phase=(0.3, 1.1)):
    """The orbit of one point under s @ block_rotation(2pi a/ell,
    2pi b/ell) @ s.T, the point having radius r1 in the first plane."""
    r2 = math.sqrt(1 - r1 * r1)
    p = np.array([r1 * math.cos(phase[0]), r1 * math.sin(phase[0]),
                  r2 * math.cos(phase[1]), r2 * math.sin(phase[1])])
    return np.array([s @ block_rotation(2 * np.pi * a * j / ell,
                                        2 * np.pi * b * j / ell) @ p
                     for j in range(ell)])


class TestFitRotation:
    """The Procrustes fit of a cycle's step rotation in cycle_circle."""

    def test_roundtrip(self, rng):
        step0 = block_rotation(2 * np.pi * 3 / 40, 2 * np.pi * 8 / 40)
        for _ in range(10):
            s = random_rotation(rng)
            orbit = block_orbit(40, 3, 8, s)
            perm = rng.permutation(40)
            order = np.argsort(perm)
            step = s @ step0 @ s.T
            c = cycle_circle(orbit[perm], order)
            assert np.max(np.abs(rebuilt_step(orbit, c) - step)) < 1e-9
            # the reversed cycle steps by the inverse rotation
            c = cycle_circle(orbit[perm], order[::-1])
            assert np.max(np.abs(rebuilt_step(orbit[::-1], c) - step.T)) < 1e-9

    def test_identity(self, rng):
        # the identity step leaves a one-point cycle, on which the fit is
        # free; a fine cycle, whose step is next to the identity, still fits
        s = random_rotation(rng)
        with pytest.raises(Stalled, match="isoclinic"):
            cycle_circle(s[:1], [0])
        orbit = block_orbit(20000, 1, 2, s)
        c = cycle_circle(orbit, range(20000))
        assert np.max(np.abs(projector(c) - s @ SLOW_12 @ s.T)) < 1e-9


class TestCycleCircle:
    def test_block_rotation_slow_plane(self):
        c = cycle_circle(block_orbit(40, 3, 8, np.eye(4)), range(40))
        assert np.max(np.abs(projector(c) - SLOW_12)) < 1e-12
        c = cycle_circle(block_orbit(40, 9, 2, np.eye(4)), range(40))
        assert np.max(np.abs(projector(c) - SLOW_34)) < 1e-12

    @given(st.data(), st.sampled_from([8, 9, 12, 21, 25, 30, 60]),
           st.floats(0.1, 0.99), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_conjugated_block_rotation(self, data, ell, r1, seed):
        half = (ell - 1) // 2
        a = data.draw(st.integers(0, half))
        b = data.draw(st.integers(0, half))
        assume(math.gcd(math.gcd(a, b), ell) == 1)
        rng = np.random.default_rng(seed)
        s = random_rotation(rng)
        orbit = block_orbit(ell, a, b, s, r1, rng.uniform(0, 2 * np.pi, 2))
        # the cycle order is an argument, not the row order
        perm = rng.permutation(ell)
        pts, order = orbit[perm], np.argsort(perm)
        if a == b:
            with pytest.raises(Stalled, match="isoclinic"):
                cycle_circle(pts, order)
        elif min(a, b) == 0:
            with pytest.raises(Stalled, match="fixes a plane"):
                cycle_circle(pts, order)
        else:
            want = s @ (SLOW_12 if a < b else SLOW_34) @ s.T
            got = projector(cycle_circle(pts, order))
            assert np.max(np.abs(got - want)) < 1e-9

    def test_isoclinic_rejected(self):
        # right and left isoclinic steps leave every orbit concyclic
        for b in (5, 35):
            with pytest.raises(Stalled, match="isoclinic"):
                cycle_circle(block_orbit(40, 5, b, np.eye(4)), range(40))

    def test_concyclic_cycle_rejected(self):
        # a regular polygon on a great circle fixes no step rotation off it
        th = 2 * np.pi * np.arange(7) / 7
        poly = np.c_[np.cos(th), np.sin(th), np.zeros(7), np.zeros(7)]
        with pytest.raises(Stalled, match="isoclinic"):
            cycle_circle(poly, range(7))

    def test_open_path_rejected(self):
        with pytest.raises(Stalled, match="does not advance"):
            cycle_circle(block_orbit(40, 3, 8, np.eye(4))[:30], range(30))


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
        res, keys = run_steps(mirror_reduce(pts, g))
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
        res, keys = run_steps(mirror_reduce(pent @ r4.T, g))
        assert isinstance(res, GreatCircles)
        assert len(res.circles) == 1
        p = projector(res.circles[0])
        pexp = r4 @ np.diag([1.0, 1, 0, 0]) @ r4.T
        assert np.max(np.abs(p - pexp)) < 1e-9

    def test_octahedron_to_antipodal_normals(self, rng):
        octa = np.concatenate([np.eye(4)[:3], -np.eye(4)[:3]])
        r4 = random_rotation(rng)
        ex, _ = iterative_prune(octa @ r4.T, delta0=1.5)
        assert isinstance(ex, MirrorSymmetric)
        res, keys = run_steps(mirror_reduce(ex.points, ex.graph))
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
        res, _ = run_steps(mirror_reduce(ex.points, ex.graph))
        assert isinstance(res, GreatCircles)
        assert len(res.circles) == 2
        projs = [projector(c) for c in res.circles]
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
        arcs = set(map(tuple, cp.edges.tolist()))
        g = DirectedGraph(32, arc_array(arcs | {(b, a) for a, b in arcs}))
        res, _ = run_steps(mirror_reduce(g48 @ r4.T, g))
        assert isinstance(res, GreatCircles)
        assert len(res.circles) == 2

    @pytest.mark.parametrize("ell, k", [(21, 4), (30, 7), (60, 7)])
    def test_mirror_cycle_with_isoclinic_spread_step(self, ell, k, rng):
        # with ell % 3 == 0 and k % 3 == +-1, the step rotation to the power
        # ell/3 is isoclinic: every triple ell/3 apart lies on one circle
        r4 = random_rotation(rng)
        g = both_ways([(i, (i + 1) % ell) for i in range(ell)], ell)
        res, keys = run_steps(
            mirror_reduce(gen_orbit_helix(ell, k, 0.6) @ r4.T, g))
        assert isinstance(res, GreatCircles)
        assert keys[-1] == ("R5", ("cycles", (ell,)))
        assert len(res.circles) == 1
        want = r4 @ SLOW_12 @ r4.T
        assert np.max(np.abs(projector(res.circles[0]) - want)) < 1e-9

    def test_several_cycles_walk_as_traced(self, rng):
        # three orbit cycles on interleaved vertex numbers: the arc walk
        # gives each cycle the vertex order of the neighbour-table trace
        orbits = [block_orbit(11, 1, 4, random_rotation(rng)),
                  block_orbit(10, 1, 3, random_rotation(rng)),
                  block_orbit(7, 2, 1, random_rotation(rng))]
        n = sum(map(len, orbits))
        perm = rng.permutation(n)
        cycles = np.split(perm, np.cumsum([len(o) for o in orbits])[:-1])
        pts = np.empty((n, 4))
        for c, o in zip(cycles, orbits):
            pts[c] = o
        g = both_ways([(c[i - 1], c[i]) for c in cycles
                       for i in range(len(c))], n)
        res, keys = run_steps(mirror_reduce(pts, g))
        assert keys[-1] == ("R5", ("cycles", (7, 10, 11)))
        nbrs = [g.out_rows(v)[:, 1].tolist() for v in range(n)]
        want = pluecker_sorted([
            cycle_circle(pts, _trace_cycle(nbrs, int(min(c)))) for c in cycles])
        assert len(res.circles) == len(want)
        for got, ref in zip(res.circles, want):
            assert np.array_equal(projector(got), projector(ref))

    def test_keys_equal_under_rotation(self, rng):
        th = 2 * np.pi * np.arange(5) / 5
        pent = np.stack([np.cos(th), np.sin(th),
                         np.zeros(5), np.zeros(5)], axis=1)
        g = both_ways([(i, (i + 1) % 5) for i in range(5)], 5)
        _, k0 = run_steps(mirror_reduce(pent, g))
        _, k1 = run_steps(mirror_reduce(pent @ random_rotation(rng).T, g))
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
        cycles, keys = orbit_circles(ex)
        assert keys
        assert cycles
        for c in cycles:
            assert len(c.vertices) == 40
            # the step turns the circle by 2pi/40, its complement by 4pi/40
            orbit = ex.points[list(c.vertices)]
            for basis, want in ((c.circle, 2 * np.pi / 40),
                                (frame(c.circle)[2:], 4 * np.pi / 40)):
                z = orbit @ basis.T @ [1, 1j]
                assert np.allclose(np.abs(np.angle(np.roll(z, -1) / z)),
                                   want, atol=1e-9)

    def test_cycle_circle_is_slow_plane(self, rng):
        ex, r4 = self.run_helix(rng)
        cycles, _ = orbit_circles(ex)
        # the invariant circle tracks the plane of the smaller turning angle
        pexp = r4 @ np.diag([1.0, 1, 0, 0]) @ r4.T
        for c in cycles:
            p = projector(c.circle)
            assert np.max(np.abs(p - pexp)) < 1e-7

    def test_circle_budget(self):
        ex, _ = self.run_helix()
        cycles, _ = orbit_circles(ex)
        assert len(cycles) <= max(1, len(ex.points) // 200) * 40
        seen = {tuple(sorted(c.vertices)) for c in cycles}
        assert len(seen) == len(cycles)

    def test_keys_equal_under_rotation(self, rng):
        ex0, _ = self.run_helix()
        ex1, _ = self.run_helix(rng)
        _, k0 = orbit_circles(ex0)
        _, k1 = orbit_circles(ex1)
        assert k0 == k1
