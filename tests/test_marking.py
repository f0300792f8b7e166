"""Marking a family of great circles, or condensing it when it is small."""

import math

import numpy as np

from conftest import left_frame, pluecker_distance
from hypercongruence.geom import (
    Chirality,
    PlaneSpan,
    chirality,
    frame,
    hopf_fiber,
    mark_pair,
    pluecker,
)
from hypercongruence.harness import random_rotation
from hypercongruence.marking import (FewCircles, Markers, _closest_mates,
                                     mark_circles)

E12 = PlaneSpan(np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]))


def rot_span(plane, r):
    return PlaneSpan.from_vectors(r @ plane.basis[0], r @ plane.basis[1])


def dodecahedron():
    phi = (1 + math.sqrt(5)) / 2
    pts = [[s1, s2, s3] for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    a, b = phi, 1 / phi
    for s1 in (1, -1):
        for s2 in (1, -1):
            pts += [[0, s1 * a, s2 * b], [s1 * b, 0, s2 * a],
                    [s2 * a, s1 * b, 0]]
    pts = np.array(pts, float)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def tetrahedron():
    return np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                    float) / math.sqrt(3)


# the complex structure x -> (x3, -x2, x1, -x0) of the fixture below
J = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
             dtype=float)


def bundle_frame(circle: PlaneSpan) -> np.ndarray:
    """The frame (p, q, Jq, -Jp) of a circle with basis (p, q) and p.Jq = 0.

    Fixing the completion rows fixes which fiber of a bundle lies over a
    base point, so the fixture does not depend on the completion rule of
    ``geom.frame``.
    """
    p, q = circle.basis
    f = np.array([p, q, J @ q, -J @ p])
    assert np.allclose(f @ f.T, np.eye(4), atol=1e-12)
    assert np.linalg.det(f) > 0
    return f


def two_tetra_bundles():
    """Two left Hopf bundles of tetrahedral circles sharing the tie circle D.

    D is a right fiber of the first bundle at twice the tetrahedral angle,
    and simultaneously the image of the first tetrahedron vertex in the
    second bundle; all 28 pairwise distances then agree.  Every bundle is
    laid out in a :func:`bundle_frame`.
    """
    t = tetrahedron()
    f0 = left_frame(bundle_frame(E12))
    b1 = [hopf_fiber(f0, v) for v in t]
    beta2 = math.acos(-1 / 3)
    d = hopf_fiber(bundle_frame(b1[0]),
                   np.array([math.sin(beta2), 0, math.cos(beta2)]))
    axis = np.cross(t[0], [0, 0, 1.0])
    axis /= np.linalg.norm(axis)
    ang = math.acos(t[0] @ [0, 0, 1.0])
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    rt = np.eye(3) + math.sin(ang) * k + (1 - math.cos(ang)) * (k @ k)
    fd = left_frame(bundle_frame(d))
    b2 = [hopf_fiber(fd, rt @ v) for v in t]
    assert pluecker_distance(b2[0], d) < 1e-9
    return b1 + [d] + b2[1:]


class TestTwoCircles:
    def circles(self):
        v = np.array([0, 0.3, 1.0, 0])
        c2 = PlaneSpan.from_vectors(np.array([0, 0, 0, 1.0]),
                                    v / np.linalg.norm(v))
        return [E12, c2]

    def test_non_parallel_pair_marks(self):
        c1, c2 = self.circles()
        assert chirality(c1, c2) == Chirality.NOT_ISOCLINIC
        res, keys = mark_circles([c1, c2], few_cap=1)
        assert isinstance(res, Markers)
        # one unordered pair contributes two antipodal marks per circle
        assert len(res.points) == 4
        stages = [k[0] for k in keys]
        assert stages[0] == "M2"
        assert "M7" in stages

    def test_marks_lie_on_their_circles(self):
        c1, c2 = self.circles()
        res, _ = mark_circles([c1, c2], few_cap=1)
        on1, on2 = mark_pair(c1, c2)
        got = sorted(map(tuple, np.round(res.points, 9)))
        want = sorted(map(tuple, np.round(np.vstack([on1, on2]), 9)))
        assert got == want


class TestFewCirclesPath:
    def test_dodecahedral_bundle_condenses(self, rng):
        f0 = frame(E12.basis)
        circles = [hopf_fiber(f0, v) for v in dodecahedron()]
        r = random_rotation(rng)
        res, keys = mark_circles([rot_span(c, r) for c in circles],
                                 few_cap=12)
        assert isinstance(res, FewCircles)
        # dodecahedral fibers condense to the icosahedral dual bundle
        assert len(res.circles) == 12
        stages = [k[0] for k in keys]
        assert "M11" in stages and stages[-1] == "M3"

    def test_condensed_circles_form_one_bundle(self, rng):
        f0 = frame(E12.basis)
        circles = [hopf_fiber(f0, v) for v in dodecahedron()]
        res, _ = mark_circles(circles, few_cap=12)
        for i in range(len(res.circles)):
            for j in range(i + 1, len(res.circles)):
                # antipodal base points give fully orthogonal fibers (BOTH)
                assert chirality(res.circles[i], res.circles[j]) in (
                    Chirality.RIGHT, Chirality.BOTH)


class TestEquidistantBundles:
    def test_two_tetra_bundles_mark(self):
        allc = two_tetra_bundles()
        d = [pluecker_distance(allc[i], allc[j])
             for i in range(8) for j in range(i + 1, 8)]
        assert np.allclose(d, math.sqrt(4 / 3), atol=1e-9)
        res, keys = mark_circles(allc, few_cap=2)
        assert isinstance(res, Markers)
        assert len(res.points) == 24
        stages = [k[0] for k in keys]
        assert "M7" in stages
        # chirality census sees both handedness classes plus the mixed ties
        m6 = next(k for k in keys if k[0] == "M6")
        assert sum(m6[1]) == 28

    def test_lockstep_keys_rotation_invariant(self, rng):
        allc = two_tetra_bundles()
        r = random_rotation(rng)
        res, keys = mark_circles(allc, few_cap=2)
        res_r, keys_r = mark_circles([rot_span(c, r) for c in allc],
                                     few_cap=2)
        assert keys == keys_r
        assert type(res) is type(res_r)

    def test_mark_count_keys_differ_for_different_families(self):
        c1, c2 = TestTwoCircles().circles()
        _, k2 = mark_circles([c1, c2], few_cap=1)
        _, k8 = mark_circles(two_tetra_bundles(), few_cap=2)
        assert k2 != k8


class TestClosestMates:
    def test_ties_keep_every_nearest_mate(self, rng):
        # fibers over the octahedron: the four equatorial ones are equally
        # near the north fiber, under any rotation of the family
        octa = np.concatenate([np.eye(3), -np.eye(3)])[[2, 0, 1, 3, 4, 5]]
        circles = [hopf_fiber(frame(E12.basis), v) for v in octa]
        for r in (np.eye(4), random_rotation(rng)):
            plv = np.array([pluecker(rot_span(c, r)) for c in circles])
            assert _closest_mates(0, [1, 2, 3, 4, 5], plv, 1e-9) == [1, 2, 3, 4]
