"""Condensing finite sets on the 2-sphere to at most 12 representatives."""

import math

import numpy as np
import pytest

from conftest import rot3
from hypercongruence.sphere import condense_sphere

PHI = (1 + math.sqrt(5)) / 2


def icosahedron():
    pts = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            pts += [[0, s1, s2 * PHI], [s1, s2 * PHI, 0], [s2 * PHI, 0, s1]]
    pts = np.array(pts, float)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def cube():
    pts = np.array([[x, y, z] for x in (1, -1) for y in (1, -1)
                    for z in (1, -1)], float)
    return pts / math.sqrt(3)


def octahedron():
    return np.concatenate([np.eye(3), -np.eye(3)])


def dodecahedron():
    pts = list(cube() * math.sqrt(3))
    for s1 in (1, -1):
        for s2 in (1, -1):
            pts += [[0, s1 * PHI, s2 / PHI], [s2 / PHI, 0, s1 * PHI],
                    [s1 * PHI, s2 / PHI, 0]]
    pts = np.array(pts, float)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def tetrahedron():
    return np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                    float) / math.sqrt(3)


def same_configuration(a, b, tol=1e-9):
    """Equal point sets up to order."""
    if len(a) != len(b):
        return False
    bb = list(map(tuple, np.round(b, 9)))
    for p in a:
        cand = min(range(len(bb)),
                   key=lambda i: np.linalg.norm(p - np.array(bb[i])))
        if np.linalg.norm(p - np.array(bb[cand])) > tol:
            return False
        bb.pop(cand)
    return True


def kind_of(points):
    """Classify a condensed output by size and distance multiset."""
    n = len(points)
    if n == 1:
        return "point"
    if n == 2:
        assert np.allclose(points[0], -points[1], atol=1e-7)
        return "antipodal"
    d = sorted(np.linalg.norm(points[i] - points[j], axis=-1)
               for i in range(n) for j in range(i + 1, n))
    if n == 4:
        assert np.allclose(d, d[0], atol=1e-7)
        return "tetrahedron"
    if n == 6:
        return "octahedron"
    if n == 12:
        return "icosahedron"
    raise AssertionError(f"unexpected condensed size {n}")


def test_icosahedron_is_fixed():
    ico = icosahedron()
    out = condense_sphere(ico)
    assert same_configuration(out, ico)


def test_cube_to_octahedron():
    out = condense_sphere(cube())
    assert same_configuration(out, octahedron(), tol=1e-9)


def test_octahedron_is_fixed():
    out = condense_sphere(octahedron())
    assert same_configuration(out, octahedron())


def test_tetrahedron_is_fixed():
    out = condense_sphere(tetrahedron())
    assert same_configuration(out, tetrahedron())


def test_dodecahedron_to_face_centroids():
    out = condense_sphere(dodecahedron())
    assert kind_of(out) == "icosahedron"
    # face centroids of the dodecahedron are icosahedron vertices
    ico = icosahedron()
    match = [min(np.linalg.norm(ico - p, axis=1)) for p in out]
    assert max(match) < 1e-9


def test_hemisphere_cluster_to_mean_direction(rng):
    base = np.array([0.3, -0.5, 0.81])
    base /= np.linalg.norm(base)
    pts = base + 0.05 * rng.normal(size=(5, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    out = condense_sphere(pts)
    assert out.shape == (1, 3)
    m = pts.mean(axis=0)
    assert np.allclose(out[0], m / np.linalg.norm(m), atol=1e-12)


def test_antipodal_pair_fixed():
    v = np.array([[0.6, 0.8, 0.0], [-0.6, -0.8, 0.0]])
    out = condense_sphere(v)
    assert kind_of(out) == "antipodal"


def test_small_circle_condenses_to_its_axis():
    # points on a non-great circle: affinely flat but full linear rank,
    # with a mean direction along the circle axis
    th = np.arange(25) * 2 * math.pi / 25 + 0.17
    z = 0.4
    r = math.sqrt(1 - z * z)
    pts = np.c_[r * np.cos(th), r * np.sin(th), np.full(25, z)]
    out = condense_sphere(pts)
    assert out.shape == (1, 3)
    assert np.allclose(out[0], [0, 0, 1], atol=1e-9)


def test_great_circle_points_to_poles():
    # balanced equatorial polygon: planar rank, zero centroid
    th = np.arange(17) * 2 * math.pi / 17 + 0.3
    pts = np.c_[np.cos(th), np.sin(th), np.zeros(17)]
    out = condense_sphere(pts)
    assert kind_of(out) == "antipodal"
    assert np.allclose(np.abs(out[:, 2]), 1, atol=1e-9)


def test_output_always_canonical_kind(rng):
    for n in (3, 7, 20, 50):
        for _ in range(5):
            pts = rng.normal(size=(n, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            out = condense_sphere(pts)
            assert kind_of(out) in ("point", "antipodal", "tetrahedron",
                                    "octahedron", "icosahedron")
            assert len(out) <= min(12, n)


def test_equivariance(rng):
    for pts in (cube(), dodecahedron(), icosahedron()):
        out = condense_sphere(pts)
        for _ in range(3):
            r = rot3(rng)
            out_r = condense_sphere(pts @ r.T)
            assert same_configuration(out_r, out @ r.T, tol=1e-7)


def test_empty_rejected():
    with pytest.raises(ValueError):
        condense_sphere(np.empty((0, 3)))


def ring(n, z, phase=0.0):
    th = phase + 2 * math.pi * np.arange(n) / n
    r = math.sqrt(1 - z * z)
    return np.c_[r * np.cos(th), r * np.sin(th), np.full(n, z)]


def bipyramid(n):
    return np.vstack([ring(n, 0.0), [[0, 0, 1.0], [0, 0, -1.0]]])


def antiprism(n, z):
    return np.vstack([ring(n, z), ring(n, -z, math.pi / n)])


def assert_condenses_to_axis(pts, rng):
    """The output is the antipodal pair on the z axis, and condensing
    commutes with a rotation and with a reflection of the sphere."""
    out = condense_sphere(pts)
    assert kind_of(out) == "antipodal"
    assert same_configuration(out, np.array([[0, 0, 1.0], [0, 0, -1.0]]))
    for m in (rot3(rng), rot3(rng) @ np.diag([-1.0, 1, 1])):
        assert same_configuration(condense_sphere(pts @ m.T), out @ m.T)


def test_near_duplicate_vertex_merges(rng):
    # a copy of one vertex 1e-12 away merges back before the hull is built
    pts = bipyramid(3)
    assert_condenses_to_axis(np.vstack([pts, pts[1] + [0, 0, 1e-12]]), rng)


@pytest.mark.parametrize("n", [3, 5])
def test_bipyramid_degree_prune_to_poles(n, rng):
    # the two poles form the rarer vertex-degree class
    assert_condenses_to_axis(bipyramid(n), rng)


def test_square_antiprism_face_size_prune(rng):
    # every vertex has degree 4; the two squares are the rarer face size
    assert_condenses_to_axis(antiprism(4, 0.4), rng)


def test_two_length_triangular_antiprism_face_keys(rng):
    # triangles only, degree 4 throughout, six edges of each length: only
    # the edge-length keys of the faces single out the two end triangles
    assert_condenses_to_axis(antiprism(3, 0.3), rng)
