"""Iterative pruning of unit-sphere sets and its figure codes."""

import math

import numpy as np
import pytest

from conftest import (arc_array, chiral_helix, dense_ranks, mark_circle,
                      reference_edge_figure_codes, reference_mark_figure,
                      reference_successor_angles, snub_24_cell, two_helices)
from hypercongruence.geom import CONSTANTS, EPS_EQ, block_rotation
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
    _Run,
    edge_figure_codes,
    iterative_prune,
    mark_figures,
    successor_angles,
)


def unit_rows(pts):
    pts = np.asarray(pts, float)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def arcs_of(graph):
    return list(map(tuple, graph.arc_rows.tolist()))


def undirected(graph):
    return {(min(a), max(a)) for a in arcs_of(graph)}


def graph_of(points):
    g = closest_pair_graph(points)
    arcs = frozenset((i, j) for i, j in g.edges) | frozenset(
        (j, i) for i, j in g.edges)
    return DirectedGraph(len(points), arc_array(arcs))


def code_of(graph, ranks):
    """Arc tuple -> rank of its edge-figure code."""
    return dict(zip(arcs_of(graph), ranks.tolist()))


class TestFigureCodes:
    def test_codes_equal_under_rotation(self, rng):
        # the 600-cell star of TestBatchedFigureCodes beside rotated copies
        # of itself in one graph: ranks are shared across the copies, so
        # equal ranks arc by arc mean equal codes, over six code classes
        pts = unit_rows(gen_regular_polytope("600-cell"))
        rots = [random_rotation(rng) for _ in range(3)]
        g = graph_of(pts)
        assert undirected(g) == undirected(graph_of(pts @ rots[0].T))
        cap = pts @ pts[0] > 0.45
        star = g.arc_rows[cap[g.arc_rows].all(axis=1)]
        copies = [pts] + [pts @ r.T for r in rots]
        n = len(pts)
        union = DirectedGraph(n * len(copies),
                              np.concatenate([star + k * n for k in range(len(copies))]))
        ranks = edge_figure_codes(np.concatenate(copies), union)
        ranks = ranks.reshape(len(copies), len(star))
        assert len(set(ranks[0].tolist())) == 6
        assert (ranks == ranks[0]).all()

    def test_four_cube_arcs_all_one_code(self):
        cube = unit_rows(gen_regular_polytope("4-cube"))
        g = graph_of(cube)
        assert len(g.arc_rows) == 64
        assert set(edge_figure_codes(cube, g).tolist()) == {0}

    def test_arc_orientation_matters(self):
        # path 0-1-2 with unequal leg lengths at the middle vertex
        pts = unit_rows([[1, 0, 0, 0],
                         [math.cos(0.8), math.sin(0.8), 0, 0],
                         [math.cos(0.8 + 1.1) * math.cos(0.2),
                          math.sin(0.8 + 1.1) * math.cos(0.2),
                          math.sin(0.2), 0]])
        g = DirectedGraph(3, arc_array({(0, 1), (1, 0), (1, 2), (2, 1)}))
        codes = code_of(g, edge_figure_codes(pts, g))
        assert codes[(0, 1)] != codes[(1, 0)]


class TestBatchedFigureCodes:
    """edge_figure_codes against the dense ranks of the per-arc tuple codes
    of the conftest reference; "f" codes sort below "p" codes."""

    @staticmethod
    def check(points, graph):
        ranks = edge_figure_codes(points, graph)
        ref = reference_edge_figure_codes(points, graph)
        assert sorted(ref) == arcs_of(graph)
        assert ranks.tolist() == dense_ranks([ref[a] for a in arcs_of(graph)])
        return ref

    def test_great_circle_is_planar_only(self, rng):
        t = np.sort(rng.uniform(0, 2 * np.pi, 60))
        pts = np.c_[np.cos(t), np.sin(t), np.zeros(60), np.zeros(60)]
        pts = pts @ random_rotation(rng).T
        ring = [(i, (i + 1) % 60) for i in range(60)]
        g = DirectedGraph(60, arc_array(ring + [(j, i) for i, j in ring]))
        codes = self.check(pts, g)
        assert {c[0] for c in codes.values()} == {"p"}

    def test_torus_grid(self):
        pts = unit_rows(gen_torus_grid(8, 9, 1 / math.sqrt(2)))
        codes = self.check(pts, graph_of(pts))
        assert {c[0] for c in codes.values()} == {"f"}

    def test_600_cell_star(self):
        # a vertex, its 12 neighbours and their 20 common neighbours: the
        # hub's in-arcs have 11 base vectors each
        pts = unit_rows(gen_regular_polytope("600-cell"))
        g = closest_pair_graph(pts)
        cap = pts @ pts[0] > 0.45
        arcs = frozenset((i, j) for i, j in g.edges if cap[i] and cap[j])
        graph = DirectedGraph(len(pts), arc_array(arcs | {(j, i) for i, j in arcs}))
        assert max(len(graph.out_rows(v)) for v in range(len(pts))) >= 6
        self.check(pts, graph)

    def test_both_branches_in_one_graph(self, rng):
        # a ring of a great circle plus a spoke to a point off its plane:
        # the arcs near the spoke get three-vector frames, the rest none
        t = 2 * np.pi * np.arange(12) / 12
        ring = np.c_[np.cos(t), np.sin(t), np.zeros(12), np.zeros(12)]
        pts = np.vstack([ring, unit_rows([[1.0, 0.3, 0.4, 0.2]])])
        pts = pts @ random_rotation(rng).T
        edges = [(i, (i + 1) % 12) for i in range(12)] + [(0, 12)]
        g = DirectedGraph(13, arc_array(edges + [(j, i) for i, j in edges]))
        codes = self.check(pts, g)
        assert {c[0] for c in codes.values()} == {"f", "p"}

    def test_random_forests_near_a_great_circle(self):
        # points mostly on one great circle, a few lifted off it, joined by
        # a random forest whose edges keep each direction with probability
        # 0.8: planar figures get on-circle points, so canonical axes rank
        # labeled angular parts
        rng = np.random.default_rng(7)
        labeled = 0
        for _ in range(100):
            n = int(rng.integers(3, 16))
            t = rng.uniform(0, 2 * np.pi, n)
            lift = np.where(rng.random(n) < 0.2, rng.normal(0, 0.5, (2, n)), 0)
            pts = unit_rows(np.c_[np.cos(t), np.sin(t), lift.T])
            pts = pts @ random_rotation(rng).T
            edges = [(int(rng.integers(i)), i) for i in range(1, n)]
            arcs = {a for i, j in edges for a in ((i, j), (j, i))
                    if rng.random() < 0.8}
            if not arcs:
                continue
            codes = self.check(pts, DirectedGraph(n, arc_array(arcs)))
            labeled += any(c[0] == "p" and c[2] for c in codes.values())
        assert labeled >= 60


class TestDirectedGraph:
    def test_rows_match_brute_force(self, rng):
        # vertex 9 has no arcs
        arcs = arc_array((i, j) for i, j in rng.integers(0, 9, (30, 2)).tolist()
                         if i != j)
        g = DirectedGraph(10, arcs)
        for v in range(10):
            assert g.out_rows(v).tolist() == [a for a in arcs.tolist() if a[0] == v]
            assert g.in_rows(v).tolist() == sorted(a for a in arcs.tolist()
                                                   if a[1] == v)
        assert g.degrees().tolist() == [[len(g.out_rows(v)), len(g.in_rows(v))]
                                        for v in range(10)]

    def test_mirror_test_on_empty_neighbourhoods(self):
        # a lone arc: no arc leaves its head and none enters its tail, and
        # the two empty multisets match
        pts = unit_rows([[1, 0, 0, 0], [0.9, 0.1, 0, 0]])
        g = DirectedGraph(2, arc_array({(0, 1)}))
        run = _Run(pts, EPS_EQ, CONSTANTS.delta0)
        assert run._mirror_symmetric(pts, g, (0, 1))

    def test_mirror_test_on_unequal_counts(self):
        # two arcs leave the head of arc 01, none enters its tail
        pts = unit_rows([[1, 0, 0, 0], [0.9, 0.1, 0, 0], [0.9, 0.2, 0.1, 0],
                         [0.9, 0.1, 0.2, 0]])
        g = DirectedGraph(4, arc_array({(0, 1), (1, 2), (1, 3)}))
        assert g.degrees()[1, 0] != g.degrees()[0, 1]
        run = _Run(pts, EPS_EQ, CONSTANTS.delta0)
        assert not run._mirror_symmetric(pts, g, (0, 1))


class TestBatchedChiralPath:
    """successor_angles and mark_figures against the per-arc tuple versions
    in conftest, at the last successor-angle choice of each chiral case and
    at its edge-transitive exit."""

    CASES = {"helix": (chiral_helix, 1.0), "two_helices": (two_helices, 1.0),
             "snub_24_cell": (snub_24_cell, 0.7)}

    @pytest.fixture(params=[(name, rotated) for name in CASES
                            for rotated in (False, True)],
                    ids=lambda p: p[0] + ("_rotated" if p[1] else ""))
    def exit_(self, request, rng):
        name, rotated = request.param
        build, delta0 = self.CASES[name]
        pts = unit_rows(build())
        if rotated:
            pts = pts @ random_rotation(rng).T
        ex, keys = iterative_prune(pts, delta0=delta0)
        assert isinstance(ex, EdgeTransitive)
        return ex, [k for stage, k in keys if stage == "C6"][-1]

    def test_successor_angles(self, exit_):
        ex, _ = exit_
        arcs = ex.graph.arc_rows
        pairs, ids, reps = successor_angles(ex.points, arcs, EPS_EQ)
        ref_pairs, ref_ids, ref_reps = reference_successor_angles(ex.points,
                                                                  ex.graph)
        assert [(tuple(arcs[i]), tuple(arcs[j]))
                for i, j in pairs.tolist()] == ref_pairs
        assert ids.tolist() == ref_ids
        assert np.abs(reps - ref_reps).max() <= 1e-12

    @staticmethod
    def check_figures(points, arcs, succ, delta, alpha):
        """mark_figures equals the reference on every arc; returns them."""
        figs = mark_figures(points, arcs, succ, delta, alpha)
        as_arc = [tuple(a) for a in arcs.tolist()] + [None]    # -1: None
        for a, arc in enumerate(as_arc[:-1]):
            thetas, roles, succ_at, pred_at = reference_mark_figure(
                points, arc, [as_arc[j] for j in succ[succ[:, 0] == a, 1]],
                [as_arc[i] for i in succ[succ[:, 1] == a, 0]], delta, alpha)
            at = figs.of(a)
            assert np.abs(figs.theta[at] - thetas).max() <= 1e-12
            assert figs.roles[at].tolist() == roles
            assert [as_arc[j] for j in figs.succ[at]] == succ_at
            assert [as_arc[i] for i in figs.pred[at]] == pred_at
        return figs

    def test_merged_and_seam_positions(self):
        # arc 0 -> 1 with successor heads and reflected predecessor tails
        # placed at chosen angles of its mark circle: two successors merge
        # at 1 (the later one wins), a successor and a predecessor share 3,
        # and the classes at 1e-9 and just below 2pi merge across the seam
        delta, alpha = 0.5, 2.0
        pu = np.array([1.0, 0, 0, 0])
        pv = np.array([math.cos(2 * math.asin(delta / 2)),
                       math.sin(2 * math.asin(delta / 2)), 0, 0])
        center, f1, f2 = mark_circle(pu, pv, delta, alpha)
        radius = math.sqrt(1 - center @ center)

        def on_circle(theta):
            return center + radius * (math.cos(theta) * f1 + math.sin(theta) * f2)

        def reflected(x):
            d = pv - pu
            return x - 2 * (x @ d) / (d @ d) * d

        heads = [1e-9, 2 * math.pi - 5e-8, 1.0, 1.0 + 1e-9, 3.0]
        tails = [3.0, 4.0, 2 * math.pi - 3e-8]
        pts = np.array([pu, pv] + [on_circle(t) for t in heads]
                       + [reflected(on_circle(t)) for t in tails])
        w = range(2, 2 + len(heads))
        t = range(2 + len(heads), len(pts))
        arcs = arc_array([(0, 1)] + [(1, k) for k in w] + [(k, 0) for k in t])
        row = {a: i for i, a in enumerate(map(tuple, arcs.tolist()))}
        succ = arc_array([(0, row[1, k]) for k in w] + [(row[k, 0], 0) for k in t])
        figs = self.check_figures(pts, arcs, succ, delta, alpha)
        at = figs.of(0)
        assert np.abs(figs.theta[at] - [1e-9, 1.0, 3.0, 4.0]).max() <= 1e-12
        assert figs.roles[at].tolist() == [2, 0, 2, 1]
        assert figs.succ[at].tolist() == [row[1, 3], row[1, 5], row[1, 6], -1]
        assert figs.pred[at].tolist() == [row[9, 0], -1, row[7, 0], row[8, 0]]

    def test_mark_figures(self, exit_):
        ex, alpha_id = exit_
        arcs = ex.graph.arc_rows
        pairs, ids, _ = successor_angles(ex.points, arcs, EPS_EQ)
        chosen = pairs[ids == alpha_id]
        assert len(chosen) >= len(ex.succ)
        figs = mark_figures(ex.points, arcs, ex.succ, ex.delta, ex.alpha)
        for name in ("starts", "owner", "theta", "succ", "pred"):
            assert np.array_equal(getattr(figs, name), getattr(ex.figures, name))
        for succ in (chosen, ex.succ):
            self.check_figures(ex.points, arcs, succ, ex.delta, ex.alpha)


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
        assert exit_.succ is not None
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

    def test_vertex_pruning_restarts_on_fewer_points(self):
        # three points 0.3 apart on a great circle and three axis points: the
        # middle point is the rarest degree class, and alone it is separated
        t = np.array([0.0, 0.3, 0.6])
        pts = np.r_[np.c_[np.cos(t), np.sin(t), np.zeros((3, 2))],
                    [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, -1, 0]]]
        exit_, keys = iterative_prune(pts, 1e-9, 0.5)
        assert isinstance(exit_, WellSeparated)
        assert np.allclose(exit_.points, pts[1:2])
        assert keys == [("C1", (6, "dense")), ("C2", 4),
                        ("C3", (((0, 0), 3), ((1, 1), 2), ((2, 2), 1))),
                        ("C1", (1, "separated"))]

    def test_mark_figure_pruning(self):
        # two 41-point helices about 1 apart, on tori of radius 0.8 and
        # 0.8 + 1e-6: at eps 1e-5 their edge figures agree (C4), while the
        # torsions on their mark circles differ by more than THETA_TOL (C9).
        # The arc prune keeps the arcs of one helix; the vertex prune then
        # keeps the isolated other helix (a tie goes to the least key).
        pts = np.r_[gen_orbit_helix(41, 2, 0.8),
                    gen_orbit_helix(41, 2, 0.8 + 1e-6)
                    @ block_rotation(0.0, math.pi).T]
        exit_, keys = iterative_prune(pts, 1e-5, 1.0)
        assert isinstance(exit_, EdgeTransitive) and len(exit_.points) == 41
        chiral = [("C5", "chiral"), ("C6", 0), ("C7", (1,))]
        assert keys == [("C1", (82, "dense")), ("C2", 164),
                        ("C3", (((2, 2), 82),)), ("C4", ((0, 164),)), *chiral,
                        ("C9", ((0, 82), (1, 82))),
                        ("C3", (((0, 0), 41), ((2, 2), 41))),
                        ("C1", (41, "dense")), ("C2", 82),
                        ("C3", (((2, 2), 41),)), ("C4", ((0, 82),)), *chiral,
                        ("C9", ((0, 82),)), ("C10", ("transitive", 1))]
