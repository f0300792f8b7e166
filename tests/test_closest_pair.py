"""Closest-pair graphs on the 3-sphere and the Pluecker 5-sphere."""

import itertools

import numpy as np
import pytest

from scipy.spatial.distance import pdist, squareform

from hypercongruence.cpgraph import ClosestPairGraph, closest_pair_graph
from hypercongruence.geom import EPS_EQ, Stalled, plueckers
from hypercongruence.harness import gen_regular_polytope, random_rotation


def brute_graph(points: np.ndarray, antipodal: bool = False,
                eps: float = EPS_EQ) -> ClosestPairGraph:
    """Quadratic reference construction of the closest-pair graph."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    d = squareform(pdist(pts))
    if antipodal:
        d_plus = squareform(pdist(np.vstack([pts, -pts])))[:n, n:]
        np.fill_diagonal(d_plus, np.inf)
        d = np.minimum(d, d_plus)
    iu = np.triu_indices(n, k=1)
    delta = float(d[iu].min())
    if delta <= eps:
        raise Stalled(f"two points at distance {delta:.3e}")
    close = d[iu] <= delta + eps
    return ClosestPairGraph(n, delta, np.column_stack(iu)[close])


def unit_cloud(rng, n):
    pts = rng.normal(size=(n, 4))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def test_four_cube_graph():
    pts = np.array(list(itertools.product([-0.5, 0.5], repeat=4)))
    g = closest_pair_graph(pts)
    assert g.delta == pytest.approx(1.0)
    assert len(g.edges) == 32
    assert np.bincount(np.ravel(g.edges), minlength=16).min() == 4
    assert np.bincount(np.ravel(g.edges)).max() == 4


def test_two_points():
    pts = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    g = closest_pair_graph(pts)
    assert g.edges.tolist() == [[0, 1]]
    assert g.delta == pytest.approx(np.sqrt(2))


def test_matches_brute_on_random(rng):
    for n in (8, 64, 200):
        pts = unit_cloud(rng, n)
        g = closest_pair_graph(pts)
        b = brute_graph(pts)
        assert np.array_equal(g.edges, b.edges)
        assert g.delta == pytest.approx(b.delta)


def test_three_on_circle_single_edge():
    th = np.array([0.0, 0.4, 1.5])
    pts = np.c_[np.cos(th), np.sin(th), np.zeros(3), np.zeros(3)]
    for make in (closest_pair_graph, brute_graph):
        g = make(pts)
        assert g.edges.tolist() == [[0, 1]]


def test_antipodal_mode_matches_brute(rng):
    for n in (10, 60):
        plv = plueckers([random_rotation(rng)[:2] for _ in range(n)])
        g = closest_pair_graph(plv, antipodal=True)
        b = brute_graph(plv, antipodal=True)
        assert np.array_equal(g.edges, b.edges)
        assert g.delta == pytest.approx(b.delta)


@pytest.mark.parametrize("name, degree", [("24-cell", 8), ("600-cell", 12)])
def test_polytopes_match_brute(rng, name, degree):
    # more neighbours than the first query asks for, so the query runs
    # again with k doubled
    pts = gen_regular_polytope(name) @ random_rotation(rng).T
    g, b = closest_pair_graph(pts), brute_graph(pts)
    assert np.array_equal(g.edges, b.edges)
    assert g.delta == pytest.approx(b.delta)
    assert (np.bincount(g.edges.ravel()) == degree).all()


def test_antipodal_ties_match_brute(rng):
    # the six coordinate planes, rotated: every two Pluecker rows are
    # sqrt(2) apart under both signs, so the graph is K6 and each sign
    # class reaches both signs of every other
    planes = np.eye(4)[list(itertools.combinations(range(4), 2))]
    plv = plueckers(planes @ random_rotation(rng).T)
    g = closest_pair_graph(plv, antipodal=True)
    b = brute_graph(plv, antipodal=True)
    assert np.array_equal(g.edges, b.edges)
    assert len(g.edges) == 15
    assert g.delta == pytest.approx(np.sqrt(2))


def test_antipodal_duplicates_rejected():
    v = plueckers(np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]))[0]
    for make in (closest_pair_graph, brute_graph):
        with pytest.raises(Stalled):
            make(np.vstack([v, -v, [0, 0, 0, 0, 0, 1.0]]), antipodal=True)


def test_duplicates_rejected(rng):
    pts = unit_cloud(rng, 5)
    pts = np.vstack([pts, pts[2]])
    with pytest.raises(Stalled):
        closest_pair_graph(pts)


def test_degree_bound_s3(rng):
    for n in (32, 128, 512):
        g = closest_pair_graph(unit_cloud(rng, n))
        assert np.bincount(np.ravel(g.edges)).max() <= 12


def test_equivariance(rng):
    pts = unit_cloud(rng, 100)
    g = closest_pair_graph(pts)
    for _ in range(5):
        r = random_rotation(rng)
        gr = closest_pair_graph(pts @ r.T)
        assert np.array_equal(gr.edges, g.edges)
        assert gr.delta == pytest.approx(g.delta)


def test_order_independent(rng):
    pts = unit_cloud(rng, 64)
    g = closest_pair_graph(pts)
    perm = rng.permutation(64)
    gp = closest_pair_graph(pts[perm])
    inv = np.argsort(perm)
    remapped = np.unique(np.sort(perm[gp.edges], axis=1), axis=0)
    assert np.array_equal(remapped, g.edges)
    assert inv is not None


def test_tolerance_closed_edge_set():
    # two pairs at distances delta and delta + tiny: both become edges
    th = np.array([0.0, 1e-3, 2.0, 2.0 + 1e-3 + 1e-13])
    pts = np.c_[np.cos(th), np.sin(th), np.zeros(4), np.zeros(4)]
    g = closest_pair_graph(pts)
    assert g.edges.tolist() == [[0, 1], [2, 3]]


def test_single_point_rejected():
    with pytest.raises(ValueError):
        closest_pair_graph(np.array([[1.0, 0, 0, 0]]))
