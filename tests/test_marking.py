"""Marking a family of great circles, or condensing it when it is small."""

import math

import numpy as np
import pytest

from conftest import pluecker_distance, snub_24_cell
from hypercongruence.circles import orbit_circles
from hypercongruence.geom import (
    EPS_EQ,
    Stalled,
    circle_halves,
    circle_of_halves,
    frame,
    mark_pairs,
    parallel,
    plueckers,
)
from hypercongruence.harness import gen_hopf_circles, random_rotation
from hypercongruence.iterprune import iterative_prune, run_steps
from hypercongruence.marking import (FewCircles, Markers, _closest_mates,
                                     mark_circles)

E12 = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
SIGMA_E12 = circle_halves(E12)[0][0]
MIRROR_X0 = np.diag([-1.0, 1.0, 1.0, 1.0])


def snub_orbit_circles() -> list:
    """The 24 orbit circles that the snub 24-cell prunes to at delta0 = 0.7."""
    ex, _ = iterative_prune(snub_24_cell(), delta0=0.7)
    return [c.circle for c in orbit_circles(ex)[0]]


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


def right_bundle(sigma, base) -> np.ndarray:
    """The fibers over the base points of the right Hopf bundle of sigma."""
    return circle_of_halves(sigma, base)


def two_tetra_bundles():
    """Two left Hopf bundles of tetrahedral circles: the circles with halves
    (s, t) for s a vertex of the tetrahedron and t one of its first two
    vertices.  The first circle of the second bundle shares s with the
    first circle, so it is also a right fiber of the first bundle; with
    the tetrahedral cosine -1/3 on both halves, all 28 pairwise distances
    agree."""
    t = tetrahedron()
    allc = np.concatenate([circle_of_halves(t, tau) for tau in t[:2]])
    sigma, tau = circle_halves(allc[[0, 4]])
    assert parallel(sigma, [(0, 1)], EPS_EQ)[0]
    assert not parallel(tau, [(0, 1)], EPS_EQ)[0]
    return allc


class TestTwoCircles:
    def circles(self):
        v = np.array([0, 0.3, 1.0, 0])
        return np.stack([E12, [[0, 0, 0, 1.0], v / np.linalg.norm(v)]])

    def test_non_parallel_pair_marks(self):
        c1, c2 = self.circles()
        assert not any(parallel(h, [(0, 1)], EPS_EQ)[0]
                       for h in circle_halves([c1, c2]))
        res, keys = run_steps(mark_circles([c1, c2], few_cap=1))
        assert isinstance(res, Markers)
        # one unordered pair contributes two antipodal marks per circle
        assert len(res.points) == 4
        stages = [k[0] for k in keys]
        assert stages[0] == "M2"
        assert "M7" in stages

    def test_marks_lie_on_their_circles(self):
        c1, c2 = self.circles()
        res, _ = run_steps(mark_circles([c1, c2], few_cap=1))
        marks, ok = mark_pairs(c1, c2)
        assert ok.all()
        got = sorted(map(tuple, np.round(res.points, 9)))
        want = sorted(map(tuple, np.round(marks, 9)))
        assert got == want


def test_empty_family_raises_at_the_call():
    # checked before the stage-key generator is returned, as prune_steps is
    with pytest.raises(ValueError, match="empty circle family"):
        mark_circles(np.zeros((0, 2, 4)))


class TestEqualAnglesStall:
    """A pair at principal angles (0, beta) is not isoclinic on its halves,
    whose chords are about beta, but its principal cosines differ by only
    beta^2 / 2: at eps 1e-9 it has no unique marks below beta ~ 4.5e-5."""

    @staticmethod
    def circles(beta):
        return [E12, [[1.0, 0, 0, 0], [0, math.cos(beta), 0, math.sin(beta)]]]

    @pytest.mark.parametrize("beta", [1e-5, 4e-5])
    def test_near_coincident_pair_stalls(self, beta):
        with pytest.raises(Stalled, match="equal principal angles"):
            run_steps(mark_circles(self.circles(beta), few_cap=1))

    def test_wider_pair_marks(self):
        # both circles hold +-e0, the marks of either one
        res, keys = run_steps(mark_circles(self.circles(1e-4), few_cap=1))
        assert isinstance(res, Markers) and keys[-1] == ("M12", 2)
        assert np.allclose(np.abs(res.points), np.eye(4)[[0, 0]])


class TestFewCirclesPath:
    def test_dodecahedral_bundle_condenses(self, rng):
        circles = right_bundle(SIGMA_E12, dodecahedron())
        r = random_rotation(rng)
        res, keys = run_steps(mark_circles(circles @ r.T, few_cap=12))
        assert isinstance(res, FewCircles)
        # dodecahedral fibers condense to the icosahedral dual bundle
        assert len(res.circles) == 12
        stages = [k[0] for k in keys]
        assert "M11" in stages and stages[-1] == "M3"

    def test_condensed_circles_form_one_bundle(self, rng):
        circles = right_bundle(SIGMA_E12, dodecahedron())
        res, _ = run_steps(mark_circles(circles, few_cap=12))
        # every pair right parallel; antipodal base points give fully
        # orthogonal fibers, which are left parallel too
        pairs = np.column_stack(np.triu_indices(len(res.circles), 1))
        assert parallel(circle_halves(res.circles)[0], pairs, EPS_EQ).all()

    def test_one_merge_per_round_runs_to_few_cap(self):
        # a random right Hopf bundle has one closest pair per round, so
        # M11 merges one pair of classes at a time: 72 rounds from 80
        # circles down to few_cap, past any fixed round cap below that
        res, keys = run_steps(
            mark_circles(gen_hopf_circles(80, 3, 0)[1], few_cap=8))
        assert isinstance(res, FewCircles) and keys[-1] == ("M3", 8)
        assert [k for s, k in keys if s == "M11"] == \
            [(n, n - 1) for n in range(80, 8, -1)]


class TestEquidistantBundles:
    def test_two_tetra_bundles_mark(self):
        allc = two_tetra_bundles()
        d = [pluecker_distance(allc[i], allc[j])
             for i in range(8) for j in range(i + 1, 8)]
        assert np.allclose(d, math.sqrt(4 / 3), atol=1e-9)
        res, keys = run_steps(mark_circles(allc, few_cap=2))
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
        res, keys = run_steps(mark_circles(allc, few_cap=2))
        res_r, keys_r = run_steps(mark_circles(allc @ r.T, few_cap=2))
        assert keys == keys_r
        assert type(res) is type(res_r)

    def test_mark_count_keys_differ_for_different_families(self):
        c1, c2 = TestTwoCircles().circles()
        _, k2 = run_steps(mark_circles([c1, c2], few_cap=1))
        _, k8 = run_steps(mark_circles(two_tetra_bundles(), few_cap=2))
        assert k2 != k8


class TestClosestMates:
    def test_ties_keep_every_nearest_mate(self, rng):
        # fibers over the octahedron: the four equatorial ones are equally
        # near the north fiber, under any rotation of the family
        octa = np.concatenate([np.eye(3), -np.eye(3)])[[2, 0, 1, 3, 4, 5]]
        circles = right_bundle(SIGMA_E12, octa)
        for r in (np.eye(4), random_rotation(rng)):
            plv = plueckers(circles @ r.T)
            assert _closest_mates(0, [1, 2, 3, 4, 5], plv, 1e-9) == [1, 2, 3, 4]

    def test_no_mates_give_nothing(self):
        plv = plueckers(E12)
        assert _closest_mates(0, [], plv, 1e-9) == []
        assert _closest_mates(0, np.array([], int), plv, 1e-9) == []

    def test_plain_list_gives_plain_ints(self, rng):
        circles = [E12 @ random_rotation(rng).T for _ in range(4)]
        plv = plueckers(circles)
        got = _closest_mates(3, [2, 0, 1], plv, 1e-9)
        assert len(got) == 1 and type(got[0]) is int
        d = [pluecker_distance(circles[3], circles[k]) for k in (2, 0, 1)]
        assert got == [(2, 0, 1)[int(np.argmin(d))]]


class TestSnubOrbitCircles:
    """The snub 24-cell's orbit circles merge into three right-parallel
    classes that condense to six circles each and then mark across pairs
    of the opposite sense; mirrored, the same walk runs on the left side."""

    @pytest.mark.parametrize("mirrored", [False, True],
                             ids=["right", "left"])
    def test_walk(self, mirrored):
        circles = snub_orbit_circles()
        m6, merge, side, cross = (0, 36, 0), "M11", "right", "M8"
        if mirrored:
            circles = [c @ MIRROR_X0 for c in circles]
            m6, merge, side, cross = (36, 0, 0), "M10", "left", "M9"
        res, keys = run_steps(mark_circles(circles, few_cap=8))
        assert isinstance(res, Markers)
        assert keys == [("M2", ((1, 24),)), ("M4", "None"), ("M5", 36),
                        ("M6", m6), (merge, (24, 3)), ("M2", ((6, 3),)),
                        ("M4", side), ("M5", 72), ("M6", (36, 36, 0)),
                        (cross, 72), ("M12", 48)]

    def test_far_circle_is_the_rarest_class(self):
        circles = snub_orbit_circles()
        far = frame([[1.4, -0.2, -1.5, -1.0], [0.0, 0.8, 1.9, 0.7]])[:2]
        # farther from every circle than the closest pairs are apart, so
        # no closest-pair edge reaches it and it stays a class of its own
        closest = min(pluecker_distance(c, d) for c in circles
                      for d in circles if c is not d)
        assert closest == pytest.approx(math.sqrt(2 / 3))
        assert min(pluecker_distance(far, c) for c in circles) > 0.86
        res, keys = run_steps(mark_circles(circles + [far], few_cap=8))
        assert keys[4:] == [("M11", (25, 4)), ("M2", ((1, 1), (6, 3))),
                            ("M3", 1)]
        assert isinstance(res, FewCircles)
        assert pluecker_distance(res.circles[0], far) < 1e-7


class TestCrossPairStall:
    """Two right bundles with orthogonal sigma over one regular hexagon on
    a great circle of the base sphere.  Each condenses (M11) to the fibers
    over the hexagon's poles, a circle c and its completely orthogonal c'
    in one class, d and d' in the other, with d left parallel to c.  The
    cross pairs then replace c by its mate c', which is left parallel to d
    as well: the constructed pair is Clifford parallel, so its principal
    angles are equal and marking stalls at M12."""

    def circles(self):
        g = np.arange(6) * math.pi / 3
        hexagon = np.c_[np.cos(g), np.sin(g), np.zeros(6)]
        return [circle_of_halves(s, t) for s in np.eye(3)[:2] for t in hexagon]

    def test_bundles_condense_to_antipodal_fiber_pairs(self):
        res, keys = run_steps(mark_circles(self.circles(), few_cap=4))
        assert isinstance(res, FewCircles)
        assert keys == [("M2", ((1, 12),)), ("M4", "None"), ("M5", 12),
                        ("M6", (0, 12, 0)), ("M11", (12, 2)),
                        ("M2", ((2, 2),)), ("M3", 4)]
        pairs = np.column_stack(np.triu_indices(len(res.circles), 1))
        right, left = (parallel(h, pairs, EPS_EQ)
                       for h in circle_halves(res.circles))
        # two fully orthogonal (both) pairs and four left ones
        assert left.all() and right.sum() == 2

    def test_cross_pairs_stall(self):
        with pytest.raises(Stalled,
                           match="marked pair has equal principal angles"):
            run_steps(mark_circles(self.circles(), few_cap=3))
