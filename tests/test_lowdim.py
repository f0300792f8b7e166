"""Labeled congruence in reduced dimensions and the 1+3 anchor reduction."""

import math
from collections import Counter

import numpy as np
import pytest

from conftest import rot3
from hypercongruence import lowdim
from hypercongruence.condense import TWO_PI, circular_cluster
from hypercongruence.geom import (PointSet4, frame, match_multisets,
                                  verify_rotation)
from hypercongruence.harness import gen_orbit_helix, random_rotation
from hypercongruence.lowdim import (
    circle_axes,
    collapse_circle,
    congruence_3d_labeled,
    labeled_rotation,
    one_plus_three_reduce,
)
from hypercongruence.sphere import condense_sphere


def unit(angles) -> np.ndarray:
    """The unit points (cos, sin) of angles on the circle."""
    a = np.asarray(angles, dtype=float)
    return np.column_stack((np.cos(a), np.sin(a)))


def turn(t: float) -> np.ndarray:
    """The 2x2 rotation by the angle t."""
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


class TestCircle:
    # a label class with one member on each side pins the turn; the
    # canonical necklace code of the circle is built only without one
    @pytest.fixture
    def no_axes(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("circle_axes called")
        monkeypatch.setattr(lowdim, "circle_axes", refuse)

    def test_regular_polygon_any_shift(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return circle_axes(*args)
        monkeypatch.setattr(lowdim, "circle_axes", counted)
        ang = np.arange(7) * TWO_PI / 7
        s = labeled_rotation(unit(ang), [0] * 7, unit(ang + 1.3), [0] * 7,
                             1e-9)
        assert s is not None and len(calls) == 1
        assert np.allclose(s @ s.T, np.eye(2), atol=1e-12)
        assert match_multisets(unit(ang) @ s.T, unit(ang + 1.3), 1e-9)

    def test_identical_sequences_zero_shift(self):
        ang = np.array([0.3, 1.1, 4.0])
        s = labeled_rotation(unit(ang), list("xyz"), unit(ang), list("xyz"),
                             1e-9)
        assert s is not None
        assert np.allclose(s, np.eye(2), atol=1e-9)

    def test_distinct_labels_pin_exact_shift(self, rng, no_axes):
        ang = np.arange(7) * TWO_PI / 7
        labs = list(range(7))
        b = ang + 1.3 + 1e-12 * rng.normal(size=7)
        s = labeled_rotation(unit(ang), labs, unit(b), labs, 1e-9)
        assert s is not None
        assert np.abs(s - turn(1.3)).max() < 1e-11

    def test_permuted_labels_rejected(self):
        ang = np.arange(7) * TWO_PI / 7
        labs = list(range(7))
        swapped = [labs[i] for i in [1, 0, 2, 3, 4, 5, 6]]
        assert labeled_rotation(unit(ang), labs, unit(ang + 1.3), swapped,
                                1e-9) is None

    def test_wrap_seam_within_tolerance(self):
        s = labeled_rotation(unit([0.0]), ["x"], unit([6.28318]), ["x"], 1e-4)
        assert s is not None
        assert np.abs(s - turn(6.28318)).max() < 1e-12

    def test_size_mismatch(self):
        assert labeled_rotation(unit([0.0, 1.0]), [0, 0], unit([0.0]), [0],
                                1e-9) is None

    def test_gap_pattern_mismatch(self):
        assert labeled_rotation(unit([0.0, 1.0, 2.0]), [0] * 3,
                                unit([0.0, 1.0, 3.0]), [0] * 3, 1e-9) is None

    def test_position_count_mismatch(self):
        # two of A's points share one position
        assert labeled_rotation(unit([0.0, 0.0, 1.0]), [0] * 3,
                                unit([0.0, 1.0, 2.0]), [0] * 3, 1e-9) is None

    def test_empty(self):
        s = labeled_rotation(unit([]), [], unit([]), [], 1e-9)
        assert np.array_equal(s, np.eye(2))

    def test_single_position_any_shift(self):
        # every point at one angle merges into a single position
        s = labeled_rotation(unit([6.0] * 3), [0, 1, 1], unit([0.5] * 3),
                             [1, 0, 1], 1e-9)
        assert s is not None
        assert np.abs(s - turn(0.5 - 6.0)).max() < 1e-12

    def test_single_position_label_mismatch(self):
        assert labeled_rotation(unit([6.0] * 3), [0, 1, 1], unit([0.5] * 3),
                                [0, 0, 1], 1e-9) is None

    def test_irregular_gaps(self):
        ang = np.array([0.0, 0.5, 1.7, 3.0, 4.9])
        lab = ["a", "b", "a", "c", "b"]
        s = labeled_rotation(unit(ang), lab, unit(ang + 2.2), lab, 1e-9)
        assert s is not None and np.abs(s - turn(2.2)).max() < 1e-9
        assert labeled_rotation(unit(ang), lab, unit(ang + 2.2),
                                ["a", "b", "a", "c", "c"], 1e-9) is None

    def test_gap_chain_drift_rejected(self):
        # gaps ramp by 0.9 eps around a 9-gon: one chained gap class, so the
        # codes agree, but the positions drift up to 9 eps apart
        h = TWO_PI / 9
        ramp = 0.9e-9 * (np.arange(9) - 4)
        drifted = np.concatenate([[0.0], np.cumsum(h + ramp)[:-1]])
        assert labeled_rotation(unit(np.arange(9) * h), [0] * 9, unit(drifted),
                                [0] * 9, 1e-9) is None

    def test_singleton_across_the_seam(self, no_axes):
        shift = 1e-7 - 6.2831853 + TWO_PI
        a = np.array([6.2831853, 2.0, 4.0])
        s = labeled_rotation(unit(a), [0, 1, 1], unit(a + shift), [0, 1, 1],
                             1e-9)
        assert s is not None and np.abs(s - turn(shift)).max() < 1e-12

    def test_other_class_displaced_rejected(self, no_axes):
        a = np.array([0.5, 2.0, 4.0])
        b = a + 1.0
        b[2] += 1e-3
        assert labeled_rotation(unit(a), [0, 1, 1], unit(b), [0, 1, 1],
                                1e-9) is None

    def test_histograms_differ_rejected(self, no_axes):
        a = np.array([0.5, 2.0, 4.0])
        assert labeled_rotation(unit(a), [0, 0, 1], unit(a), [0, 1, 1],
                                1e-9) is None


class TestLabeledRotation:
    # the plane test pins its turn from singleton tokens by the Kabsch fit
    # and checks coordinates, so angle noise near the origin is no error
    @staticmethod
    def noisy_pair(noise):
        rng = np.random.default_rng(1)
        pa = rng.normal(size=(12, 2))
        pa[0] *= 0.01 / np.linalg.norm(pa[0])
        c, s = math.cos(1.1), math.sin(1.1)
        r = np.array([[c, -s], [s, c]])
        return pa, r, pa @ r.T + noise * rng.normal(size=pa.shape)

    def test_point_near_origin_with_noise_accepted(self):
        # the point at radius 0.01 carries 5e-9 of angle noise, more than
        # eps, but its coordinates only 5e-11
        pa, r, pb = self.noisy_pair(5e-11)
        labs = np.arange(12)
        s = lowdim.labeled_rotation(pa, labs, pb, labs, 1e-9)
        assert s is not None
        assert np.abs(s - r).max() <= 1e-9

    def test_moved_point_rejected(self):
        pa, _, pb = self.noisy_pair(5e-11)
        pb[5] += 1e-3
        labs = np.arange(12)
        assert lowdim.labeled_rotation(pa, labs, pb, labs, 1e-9) is None


def collapse_reference(ang, labels, eps):
    """collapse_circle as one loop per position, summing with np.sum."""
    ang = np.mod(ang, TWO_PI)
    ids = circular_cluster(ang, eps).ids
    reps, toks = [], []
    for k in range(ids.max() + 1):
        idx = np.flatnonzero(ids == k)
        reps.append(math.atan2(np.sin(ang[idx]).sum(), np.cos(ang[idx]).sum())
                    % TWO_PI)
        toks.append(tuple(sorted(Counter(labels[i] for i in idx).items())))
    return np.array(reps), toks


class TestCollapseCircle:
    def test_matches_loop_reference(self, rng):
        # stacks of up to 11 near-equal angles, some straddling the seam;
        # the summation order differs from the loop, so positions agree to
        # within 100 float64 ulps of 2pi and tokens agree exactly
        tol = 100 * np.finfo(float).eps * TWO_PI
        for _ in range(20):
            base = np.r_[rng.uniform(0, TWO_PI, 4), 0.0]
            ang = np.repeat(base, rng.integers(1, 12, 5))
            ang = ang + rng.normal(scale=1e-11, size=len(ang))
            labels = [int(x) for x in rng.integers(0, 3, len(ang))]
            reps, rows = collapse_circle(ang, np.array(labels), 1e-9)
            ref_reps, ref_toks = collapse_reference(ang, labels, 1e-9)
            toks = [tuple((lab, c) for lab, c in zip(r[::2], r[1::2])
                          if lab >= 0) for r in rows.tolist()]
            assert toks == ref_toks
            diff = np.abs(reps - ref_reps)
            assert np.minimum(diff, TWO_PI - diff).max() <= tol

    def test_exact_ties_in_any_order(self, rng):
        # many points share each angle exactly, one stack straddles the
        # seam: input order must not reach the positions or their rows
        pool = np.r_[rng.uniform(0, TWO_PI, 5), 0.0, TWO_PI - 4e-10, 3e-10]
        for _ in range(30):
            ang = rng.choice(pool, 200)
            labels = rng.integers(0, 3, 200)
            perm = rng.permutation(200)
            reps, rows = collapse_circle(ang, labels, 1e-9)
            p_reps, p_rows = collapse_circle(ang[perm], labels[perm], 1e-9)
            assert reps.tobytes() == p_reps.tobytes()
            assert np.array_equal(rows, p_rows)

    def test_empty(self):
        reps, rows = collapse_circle([], np.zeros(0, dtype=int), 1e-9)
        assert len(reps) == 0 and len(rows) == 0


class TestTransported:
    @pytest.mark.parametrize("d", [3, 4])
    def test_frames_on_their_targets(self, rng, d):
        u = rng.normal(size=d)
        fa = frame([u])
        v = np.vstack([rng.normal(size=(20, d)), u, 3 * u, -u,
                       -u + 1e-9 * rng.normal(size=d)])
        fb = lowdim._transported(fa, v)
        unit = v / np.linalg.norm(v, axis=1, keepdims=True)
        assert np.abs(fb[:, 0] - unit).max() <= 1e-15
        gram = np.einsum("mij,mkj->mik", fb, fb)
        assert np.abs(gram - np.eye(d)).max() <= 4e-15
        assert (np.linalg.det(fb) > 0).all()
        # a target on u's axis carries the frame unchanged
        assert np.abs(fb[20:22] - fa).max() <= 1e-15

    def test_least_rotation(self, rng):
        # on the near side, fb.T @ fa turns only the plane of u and v
        u = rng.normal(size=4)
        fa = frame([u])
        for _ in range(10):
            v = u / np.linalg.norm(u) + 0.5 * rng.normal(size=4)
            if v @ u <= 0:
                continue
            g = lowdim._transported(fa, v)[0].T @ fa
            w = frame([u, v])[2:]
            assert np.abs(w @ g.T - w).max() <= 1e-14
            assert np.abs(g @ u - np.linalg.norm(u) * v / np.linalg.norm(v)
                          ).max() <= 1e-14


class TestSphere3D:
    def test_generic_cloud(self, rng):
        pa = rng.normal(size=(60, 3))
        r = rot3(rng)
        pb = pa @ r.T
        s = congruence_3d_labeled(pa, [0] * 60, pb[rng.permutation(60)],
                                  [0] * 60, 1e-9)
        assert s is not None
        assert abs(np.linalg.det(s) - 1) < 1e-9
        assert match_multisets(pa @ s.T, pb, 1e-7)

    def test_octahedron(self, rng):
        octa = np.concatenate([np.eye(3), -np.eye(3)])
        r = rot3(rng)
        s = congruence_3d_labeled(octa, [0] * 6, octa @ r.T, [0] * 6, 1e-9)
        assert s is not None
        assert match_multisets(octa @ s.T, octa @ r.T, 1e-7)

    def test_labeled_icosahedron_unique_rotation(self, rng):
        phi = (1 + math.sqrt(5)) / 2
        ico = []
        for s1 in (1, -1):
            for s2 in (1, -1):
                ico += [[0, s1, s2 * phi], [s1, s2 * phi, 0],
                        [s2 * phi, 0, s1]]
        ico = np.array(ico, float)
        ico /= np.linalg.norm(ico, axis=1, keepdims=True)
        labs = list(range(12))
        r = rot3(rng)
        s = congruence_3d_labeled(ico, labs, ico @ r.T, labs, 1e-9)
        assert s is not None
        # distinct labels leave a single admissible bijection
        assert np.max(np.abs(ico @ s.T - ico @ r.T)) < 1e-7

    def test_labeled_tetrahedron_distinct(self, rng):
        tet = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                       float) / math.sqrt(3)
        r = rot3(rng)
        s = congruence_3d_labeled(tet, "pqrs", tet @ r.T, "pqrs", 1e-9)
        assert s is not None
        assert np.max(np.abs(tet @ s.T - tet @ r.T)) < 1e-7

    def test_cylinder_with_pole_axis_case(self, rng):
        th = rng.uniform(0, TWO_PI, 40)
        cyl = np.c_[np.cos(th), np.sin(th), rng.choice([0.5, 1.5], 40)]
        cyl = np.r_[cyl, [[0, 0, 3.0]]]
        r = rot3(rng)
        s = congruence_3d_labeled(cyl, [0] * 41, cyl @ r.T, [0] * 41, 1e-9)
        assert s is not None and match_multisets(cyl @ s.T, cyl @ r.T, 1e-6)

    def test_antipodal_axis_case(self, rng):
        th = rng.uniform(0, TWO_PI, 40)
        cyl = np.c_[np.cos(th), np.sin(th), rng.choice([0.5, 1.5], 40)]
        cyl = np.r_[cyl, [[0, 0, 3.0], [0, 0, -3.0]]]
        r = rot3(rng)
        s = congruence_3d_labeled(cyl, [0] * 42, cyl @ r.T, [0] * 42, 1e-9)
        assert s is not None and match_multisets(cyl @ s.T, cyl @ r.T, 1e-6)

    def test_perturbed_rejected(self, rng):
        pa = rng.normal(size=(30, 3))
        pb = pa @ rot3(rng).T
        pb[3] += 1e-3
        assert congruence_3d_labeled(pa, [0] * 30, pb, [0] * 30, 1e-9) is None

    def test_collinear(self, rng):
        lin = np.array([[0, 0, 1.0], [0, 0, 2.0], [0, 0, -1.0]])
        r = rot3(rng)
        s = congruence_3d_labeled(lin, [0, 1, 2], lin @ r.T, [0, 1, 2], 1e-9)
        assert s is not None
        assert np.max(np.abs(lin @ s.T - lin @ r.T)) < 1e-7

    def test_count_mismatch(self):
        assert congruence_3d_labeled(np.eye(3), [0] * 3, np.eye(3)[:2],
                                     [0] * 2, 1e-9) is None

    def test_condensed_frames_differ(self):
        # six points each: a triangular prism condenses to its axis pair,
        # the octahedron to itself
        th = TWO_PI * np.arange(6) / 3
        prism = np.c_[np.cos(th), np.sin(th), np.repeat([0.5, -0.5], 3)]
        octa = np.concatenate([np.eye(3), -np.eye(3)])
        assert congruence_3d_labeled(prism / np.linalg.norm(prism, axis=1)[:, None],
                                     [0] * 6, octa, [0] * 6, 1e-9) is None

    def test_on_axis_labels_differ(self):
        # equal heights and radii, but the second point on the pinned axis
        # carries label 1 in A and label 2 in B
        pts = np.array([[0, 0, 1.0], [0, 0, -2.0], [2.0, 0, 0]])
        assert congruence_3d_labeled(pts, [0, 1, 2], pts, [0, 2, 1],
                                     1e-9) is None

    def test_on_axis_labels_differ_one_singleton(self):
        # only the pole is a singleton, so the pole is the pinned axis; the
        # point below it carries label 1 in A and label 2 in B
        pts = np.array([[0, 0, 1.0], [0, 0, -2.0], [2.0, 0, 0], [0, 2.0, 0],
                        [-2.0, 0, 0]])
        assert congruence_3d_labeled(pts, [0, 1, 1, 2, 2], pts,
                                     [0, 2, 2, 1, 1], 1e-9) is None

    def test_origin_point_allowed(self, rng):
        pts = np.array([[0, 0, 1.0], [0, 0, 2.0], [0, 0, -1.0], [0, 0, 0]])
        r = rot3(rng)
        s = congruence_3d_labeled(pts, [0, 1, 2, 3], pts @ r.T, [0, 1, 2, 3],
                                  1e-9)
        assert s is not None


class TestSingletonPin:
    # tokens held by one point on each side fix the rotation by a Kabsch
    # fit; the rarest shell is condensed only when they do not span a plane
    @pytest.fixture
    def no_shell(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("condense_sphere called")
        monkeypatch.setattr(lowdim, "condense_sphere", refuse)

    @staticmethod
    def shell(rng, n):
        u = rng.normal(size=(n, 3))
        return u / np.linalg.norm(u, axis=1, keepdims=True)

    def test_distinct_labels_exact_rotation(self, rng, no_shell):
        pa = rng.normal(size=(40, 3))
        r = rot3(rng)
        perm = rng.permutation(40)
        pb = (pa @ r.T + 1e-12 * rng.normal(size=pa.shape))[perm]
        s = congruence_3d_labeled(pa, np.arange(40), pb, perm, 1e-9)
        assert s is not None
        assert np.abs(s - r).max() <= 1e-10

    def test_mirror_image_rejected(self, rng, no_shell):
        pa = rng.normal(size=(40, 3))
        m = rot3(rng) @ np.diag([1.0, 1.0, -1.0])
        labs = np.arange(40)
        assert congruence_3d_labeled(pa, labs, pa @ m.T, labs, 1e-9) is None

    def test_coplanar_singletons(self, rng, no_shell):
        pa = np.c_[rng.normal(size=(12, 2)), np.zeros(12)]
        r = rot3(rng)
        labs = np.arange(12)
        s = congruence_3d_labeled(pa, labs, pa @ r.T, labs, 1e-9)
        assert s is not None
        assert abs(np.linalg.det(s) - 1) < 1e-12
        assert np.abs(pa @ s.T - pa @ r.T).max() <= 1e-12

    def test_collinear_singletons_fall_back(self, rng, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return condense_sphere(*args)
        monkeypatch.setattr(lowdim, "condense_sphere", counted)
        p = rng.normal(size=3)
        pa = np.r_[[p, -2 * p], self.shell(rng, 10), 2 * self.shell(rng, 10)]
        labs = [1, 2] + [0] * 20
        r = rot3(rng)
        perm = rng.permutation(22)
        s = congruence_3d_labeled(pa, labs, (pa @ r.T)[perm],
                                  np.array(labs)[perm], 1e-9)
        assert len(calls) == 2
        assert s is not None and abs(np.linalg.det(s) - 1) < 1e-12
        assert np.abs(pa @ s.T - pa @ r.T).max() <= 1e-9

    def test_displaced_class_rejected(self, rng, no_shell):
        pa = np.r_[rng.normal(size=(3, 3)), self.shell(rng, 10)]
        labs = [1, 2, 3] + [0] * 10
        pb = pa @ rot3(rng).T
        # a point of the shared shell slides along its sphere
        pb[5] = rot3(rng) @ pb[5]
        assert congruence_3d_labeled(pa, labs, pb, labs, 1e-9) is None


class TestOnePlusThree:
    def make(self, rng, n=200):
        a = rng.normal(size=(n, 4))
        a -= a.mean(axis=0)
        r4 = random_rotation(rng)
        anchors = a[:3] / np.linalg.norm(a[:3], axis=1, keepdims=True)
        return a, r4, anchors

    def test_roundtrip(self, rng):
        a, r4, anchors = self.make(rng)
        b = a @ r4.T
        v = one_plus_three_reduce(PointSet4(a),
                                  PointSet4(b[rng.permutation(len(a))]),
                                  anchors, anchors @ r4.T, 1e-9)
        assert v.congruent
        assert match_multisets(a @ v.rotation.T, b, 1e-6)

    def test_perturbed_rejected(self, rng):
        a, r4, anchors = self.make(rng)
        b = a @ r4.T
        b[7] += 1e-3
        v = one_plus_three_reduce(PointSet4(a), PointSet4(b), anchors,
                                  anchors @ r4.T, 1e-9)
        assert not v.congruent
        assert v.stage

    def test_anchor_count_mismatch(self, rng):
        a, r4, anchors = self.make(rng)
        v = one_plus_three_reduce(PointSet4(a), PointSet4(a @ r4.T), anchors,
                                  anchors[:2] @ r4.T, 1e-9)
        assert v.stage == "anchor count"

    def test_labeled(self, rng):
        a, r4, anchors = self.make(rng)
        labs = tuple(i % 5 for i in range(len(a)))
        perm = rng.permutation(len(a))
        v = one_plus_three_reduce(
            PointSet4(a, labs),
            PointSet4(a[perm] @ r4.T, tuple(labs[i] for i in perm)),
            anchors, anchors @ r4.T, 1e-9)
        assert v.congruent


def unpruned_congruent(set_a, set_b, anchors_a, anchors_b, eps=1e-9):
    """The 1+3 candidate loop without symmetry pruning: one 3D test per
    candidate of the rarest anchor class."""
    aa, ab = lowdim._anchor_class(anchors_a, anchors_b, eps)
    a0 = aa[np.lexsort(aa.T[::-1])[0]]
    return any(verify_rotation(set_a, set_b, r) for r in lowdim._about_axis(
        set_a.points, set_a.labels, set_b.points, set_b.labels, a0, ab, eps,
        lowdim.congruence_3d_labeled))


class TestAnchorSignatures:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts the 3D tests one_plus_three_reduce runs."""
        count = [0]
        inner = lowdim.congruence_3d_labeled

        def counted(*args, **kwargs):
            count[0] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(lowdim, "congruence_3d_labeled", counted)
        return count

    @pytest.fixture
    def searches(self, monkeypatch):
        """Records whether each automorphism search found a symmetry."""
        found = []
        inner = lowdim._symmetry_edges

        def recorded(*args, **kwargs):
            edges = inner(*args, **kwargs)
            found.append(edges is not None)
            return edges

        monkeypatch.setattr(lowdim, "_symmetry_edges", recorded)
        return found

    @staticmethod
    def antipodal(rng, n=128):
        u = rng.normal(size=(n, 4))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        return np.vstack([u, -u])

    def test_antipodal_pair_tries_one_class(self, rng, calls):
        # every anchor of a 2x128-point antipodal set is a candidate; its
        # signature classes are the antipodal pairs, so at most 2 remain
        a = self.antipodal(rng)
        r4 = random_rotation(rng)
        b = (a @ r4.T)[rng.permutation(len(a))]
        v = one_plus_three_reduce(PointSet4(a), PointSet4(b), a, b, 1e-9)
        assert v.congruent and calls[0] <= 2
        assert match_multisets(a @ v.rotation.T, b, 1e-6)

        calls[0] = 0
        m = (a * [1, 1, 1, -1]) @ r4.T
        v = one_plus_three_reduce(PointSet4(a), PointSet4(m), a, m, 1e-9)
        assert not v.congruent and v.stage == "anchor alignment"
        assert calls[0] <= 2

    def test_histogram_mismatch_needs_no_3d_test(self, rng, calls):
        a = self.antipodal(rng, 32)
        b = a @ random_rotation(rng).T
        anchors_b = b.copy()
        anchors_b[5] = anchors_b[5] + 1e-3 * rng.normal(size=4)
        anchors_b[5] /= np.linalg.norm(anchors_b[5])
        v = one_plus_three_reduce(PointSet4(a), PointSet4(b), a, anchors_b,
                                  1e-9)
        assert not v.congruent and v.stage == "anchor alignment"
        assert calls[0] == 0

    def test_two_anchors(self, rng, calls):
        # k = 1: both anchors share the one distance, so both are candidates
        a = rng.normal(size=(200, 4))
        a -= a.mean(axis=0)
        r4 = random_rotation(rng)
        anchors = a[:2] / np.linalg.norm(a[:2], axis=1, keepdims=True)
        b = a @ r4.T
        v = one_plus_three_reduce(PointSet4(a), PointSet4(b[::-1]), anchors,
                                  (anchors @ r4.T)[::-1], 1e-9)
        assert v.congruent and 1 <= calls[0] <= 2
        assert match_multisets(a @ v.rotation.T, b, 1e-6)

    def test_two_candidate_mirror_pair_needs_no_search(self, rng, calls,
                                                        searches):
        a = self.antipodal(rng)
        m = (a * [1, 1, 1, -1]) @ random_rotation(rng).T
        v = one_plus_three_reduce(PointSet4(a), PointSet4(m), a, m, 1e-9)
        assert not v.congruent and v.stage == "anchor alignment"
        assert calls[0] == 2 and searches == []

    def test_helix_mirror_pair_tests_one_orbit(self, rng, calls, searches):
        # all 200 anchors of a helix share one signature, but they form one
        # orbit of its symmetries: c0's test and one search decide the pair
        h = gen_orbit_helix(200, 3, 0.8)
        r4 = random_rotation(rng)
        m = (h * [1, 1, 1, -1]) @ r4.T
        v = one_plus_three_reduce(PointSet4(h), PointSet4(m), h, m, 1e-9)
        assert not v.congruent and v.stage == "anchor alignment"
        assert calls[0] <= 3 and all(searches)

        calls[0] = 0
        b = (h @ r4.T)[rng.permutation(200)]
        v = one_plus_three_reduce(PointSet4(h), PointSet4(b), h, b, 1e-9)
        assert v.congruent and calls[0] <= 3
        assert match_multisets(h @ v.rotation.T, h @ r4.T, 1e-6)

    def test_helix_mirror_pair_search_finds_the_step(self, rng, calls,
                                                     searches):
        # whatever the placement, the one search for g with g.c0 = c1 finds
        # the helix step, whose orbit covers every candidate
        for ell in (50, 100):
            h = gen_orbit_helix(ell, 3, 0.8)
            for _ in range(8):
                r4 = random_rotation(rng)
                m = ((h * [1, 1, 1, -1]) @ r4.T)[rng.permutation(ell)]
                calls[0] = 0
                searches.clear()
                v = one_plus_three_reduce(PointSet4(h), PointSet4(m), h, m,
                                          1e-9)
                assert not v.congruent and v.stage == "anchor alignment"
                assert calls[0] == 2 and searches == [True]

    def test_failed_search_stops_searching(self, rng, calls, searches):
        # labels j mod 2 split the helix's anchors into two orbits of 20
        h = gen_orbit_helix(40, 3, 0.8)
        labs = tuple(j % 2 for j in range(40))
        for flip in ([1, 1, 1, 1], [1, 1, 1, -1]):
            for _ in range(3):
                perm = rng.permutation(40)
                set_a = PointSet4(h * flip, labs)
                b = (h @ random_rotation(rng).T)[perm]
                set_b = PointSet4(b, tuple(labs[j] for j in perm))
                searches.clear()
                calls[0] = 0
                v = one_plus_three_reduce(set_a, set_b, set_a.points, b, 1e-9)
                tests_run = calls[0]
                # only the last search may fail, so at most one test is lost
                assert False not in searches[:-1] and tests_run <= 40 + 1
                assert v.congruent == (flip[3] == 1)
                assert v.congruent == unpruned_congruent(set_a, set_b,
                                                         set_a.points, b)
        # this mirror pair's c1 has the other parity: c0's test and the
        # failed search, then the 39 other candidates one by one
        assert searches == [False] and tests_run == 41

    def test_symmetry_must_permute_the_candidates(self, rng, calls, searches):
        # anchors p20, p21 of a 40-point helix and a third point c2 that
        # makes them an equilateral triangle: the helix step maps p20 onto
        # p21 but moves c2 off the anchors, so the search refuses it
        h = gen_orbit_helix(40, 3, 0.8)
        p20, p21 = h[20], h[21]
        side = p21 - p20
        n = np.array([1.0, 0, 0, 0]) - side * side[0] / (side @ side)
        c2 = (p20 + p21) / 2 + math.sqrt(0.75) * np.linalg.norm(side) * n / \
            np.linalg.norm(n)
        anchors = np.vstack([c2, p21, p20])
        set_b = PointSet4(h, (0,) * 40)
        for flip in ([1, 1, 1, 1], [1, 1, 1, -1]):
            r4 = random_rotation(rng)
            set_a = PointSet4((h * flip) @ r4.T, (0,) * 40)
            anchors_a = (anchors * flip) @ r4.T
            searches.clear()
            v = one_plus_three_reduce(set_a, set_b, anchors_a, anchors, 1e-9)
            assert v.congruent == unpruned_congruent(set_a, set_b, anchors_a,
                                                     anchors)
            assert v.congruent == (flip[3] == 1)
        # the mirror pair rejects c0 = p20 and refuses the step at c1 = p21
        assert searches == [False]
