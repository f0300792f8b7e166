"""Core geometry: plane angles, Pluecker coordinates,
chirality, Hopf maps, rotation decomposition, marks, verification."""

import math

import numpy as np
import pytest

from hypercongruence.geom import (CONSTANTS, DELTA_MIN, AnglePair, Chirality,
                                  DegenerateRotationError,
                                  ParallelPlanesError, PlaneSpan, PointSet4,
                                  angle_between_planes, block_rotation,
                                  chirality,
                                  decompose_rotation, frame, hopf_fiber,
                                  hopf_image, mark_pair, pluecker,
                                  pluecker_distance, verify_rotation)
from hypercongruence.harness import random_rotation

E12 = PlaneSpan(np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]))
E34 = PlaneSpan(np.array([[0, 0, 1.0, 0], [0, 0, 0, 1.0]]))
E13 = PlaneSpan(np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]]))


def clifford_pair(basis_rows, alpha, delta, kind):
    """A plane at angle (alpha, alpha) to span(v1, v2) of the given parity."""
    v1, v2, v3, v4 = basis_rows
    ca, sa = math.cos(alpha), math.sin(alpha)
    cd, sd = math.cos(delta), math.sin(delta)
    u1 = v1 * ca + (v3 * cd + v4 * sd) * sa
    if kind == "right":
        u2 = v2 * ca + (v4 * cd - v3 * sd) * sa
    else:
        u2 = v2 * ca + (v3 * sd - v4 * cd) * sa
    return PlaneSpan(np.vstack([u1, u2]))


class TestPlaneAngles:
    def test_identical(self):
        a = angle_between_planes(E12, E12)
        assert a == AnglePair(0.0, 0.0)

    def test_completely_orthogonal(self):
        a = angle_between_planes(E12, E34)
        assert np.allclose(a, [math.pi / 2, math.pi / 2])

    def test_clifford_construction_angle(self, rng):
        v = random_rotation(rng)
        p = PlaneSpan(v[:2].copy())
        q = clifford_pair(v, 0.3, 1.1, "right")
        a = angle_between_planes(p, q)
        assert np.allclose(a, [0.3, 0.3], atol=1e-12)

    def test_sorted_invariant(self, rng):
        for _ in range(20):
            p = PlaneSpan(random_rotation(rng)[:2])
            q = PlaneSpan(random_rotation(rng)[:2])
            a = angle_between_planes(p, q)
            assert 0 <= a.alpha <= a.beta <= math.pi / 2 + 1e-12


class TestPluecker:
    def test_axis_planes(self):
        assert np.allclose(pluecker(E12), [1, 0, 0, 0, 0, 0])
        assert np.allclose(pluecker(E34), [0, 0, 0, 0, 0, 1])

    def test_basis_independent(self, rng):
        for _ in range(20):
            p = PlaneSpan(random_rotation(rng)[:2])
            th = rng.uniform(0, 2 * math.pi)
            c, s = math.cos(th), math.sin(th)
            rebased = PlaneSpan(np.vstack([
                c * p.basis[0] + s * p.basis[1],
                -s * p.basis[0] + c * p.basis[1]]))
            assert np.allclose(pluecker(p), pluecker(rebased), atol=1e-12)

    def test_quadric_and_norm(self, rng):
        for _ in range(50):
            v = pluecker(PlaneSpan(random_rotation(rng)[:2]))
            assert abs(np.linalg.norm(v) - 1) < 1e-12
            quad = v[0] * v[5] - v[1] * v[4] + v[2] * v[3]
            assert abs(quad) < 1e-12


class TestPlueckerDistance:
    def test_identical_zero(self):
        assert pluecker_distance(E12, E12) == pytest.approx(0, abs=1e-12)

    def test_orthogonal_sqrt2(self):
        assert pluecker_distance(E12, E34) == pytest.approx(math.sqrt(2))

    def test_isoclinic_closed_form(self, rng):
        for alpha in (0.2, 0.7, 1.2):
            v = random_rotation(rng)
            p = PlaneSpan(v[:2].copy())
            q = clifford_pair(v, alpha, 0.9, "right")
            assert pluecker_distance(p, q) == pytest.approx(
                math.sqrt(2) * math.sin(alpha), abs=1e-12)

    def test_closed_form_general(self, rng):
        # coordinate distance == sqrt(2 (1 - cos a cos b)) on random pairs
        for _ in range(200):
            p = PlaneSpan(random_rotation(rng)[:2])
            q = PlaneSpan(random_rotation(rng)[:2])
            a = angle_between_planes(p, q)
            want = math.sqrt(2 * (1 - math.cos(a.alpha) * math.cos(a.beta)))
            assert abs(pluecker_distance(p, q) - want) <= 1e-9

    def test_rotation_invariant(self, rng):
        for _ in range(100):
            p = PlaneSpan(random_rotation(rng)[:2])
            q = PlaneSpan(random_rotation(rng)[:2])
            r = random_rotation(rng)
            pr = PlaneSpan(p.basis @ r.T)
            qr = PlaneSpan(q.basis @ r.T)
            assert abs(pluecker_distance(p, q)
                       - pluecker_distance(pr, qr)) <= 1e-9


class TestChirality:
    def test_orthogonal_both(self):
        assert chirality(E12, E34) is Chirality.BOTH

    def test_identical_both(self):
        assert chirality(E12, E12) is Chirality.BOTH

    def test_right_and_left_constructions(self, rng):
        for _ in range(10):
            v = random_rotation(rng)
            p = PlaneSpan(v[:2].copy())
            d = rng.uniform(0, 2 * math.pi)
            assert chirality(p, clifford_pair(v, 0.4, d, "right")) \
                is Chirality.RIGHT
            assert chirality(p, clifford_pair(v, 0.4, d, "left")) \
                is Chirality.LEFT

    def test_generic_not_isoclinic(self, rng):
        p = PlaneSpan(random_rotation(rng)[:2])
        q = PlaneSpan(random_rotation(rng)[:2])
        assert chirality(p, q) is Chirality.NOT_ISOCLINIC

    def test_right_transitive_in_bundle(self, rng):
        # fibers of one bundle are pairwise right, in any combination
        f = frame(random_rotation(rng)[:2])
        fibs = []
        for _ in range(4):
            s = rng.normal(size=3)
            fibs.append(hopf_fiber(f, s / np.linalg.norm(s), "right"))
        for i in range(4):
            for j in range(i + 1, 4):
                assert chirality(fibs[i], fibs[j]) in (
                    Chirality.RIGHT, Chirality.BOTH)


class TestFrame:
    @pytest.mark.parametrize("d", [3, 4])
    def test_near_axis_completion_is_orthonormal(self, d):
        # a vector within 1e-3 of a coordinate axis must still complete to
        # an orthonormal frame, not one off by the residual cut of an axis
        for t in np.geomspace(1e-9, 1e-3, 600):
            u = np.zeros(d)
            u[:2] = 1.0, t
            u /= np.linalg.norm(u)
            f = frame([u])
            assert np.max(np.abs(f @ f.T - np.eye(d))) <= 2e-15
            assert np.linalg.det(f) > 0
            assert f[0] @ u > 0

    def test_rows_follow_the_vectors(self, rng):
        v = rng.normal(size=(3, 4))
        f = frame(v)
        assert np.allclose(f @ f.T, np.eye(4), atol=1e-14)
        assert np.linalg.det(f) > 0
        for i in range(3):
            # row i lies in span(v_0..v_i), on the side of v_i
            coef = np.linalg.lstsq(v[:i + 1].T, f[i], rcond=None)[0]
            assert np.allclose(v[:i + 1].T @ coef, f[i], atol=1e-12)
            assert f[i] @ v[i] > 0

    def test_dependent_vectors(self):
        assert frame([(1.0, 0, 0, 0), (2.0, 1e-10, 0, 0)]) is None
        assert frame([(1.0, 0, 0, 0), (2.0, 2e-9, 0, 0)]) is not None


class TestHopf:
    def test_base_circle_to_north(self, rng):
        f = frame(E12.basis)
        for th in rng.uniform(0, 2 * math.pi, 5):
            p = math.cos(th) * E12.basis[0] + math.sin(th) * E12.basis[1]
            assert np.allclose(hopf_image(f, p), [0, 0, 1], atol=1e-12)

    def test_orthogonal_circle_to_south(self, rng):
        f = frame(E12.basis)
        for th in rng.uniform(0, 2 * math.pi, 5):
            p = np.array([0, 0, math.cos(th), math.sin(th)])
            assert np.allclose(hopf_image(f, p), [0, 0, -1], atol=1e-12)

    def test_right_pair_geodesic_is_twice_alpha(self, rng):
        f = frame(random_rotation(rng)[:2])
        for _ in range(50):
            s1, s2 = rng.normal(size=(2, 3))
            s1 /= np.linalg.norm(s1)
            s2 /= np.linalg.norm(s2)
            c = hopf_fiber(f, s1, "right")
            d = hopf_fiber(f, s2, "right")
            a = angle_between_planes(c, d)
            assert abs(a.alpha - a.beta) < 1e-9
            geo = math.acos(np.clip(s1 @ s2, -1, 1))
            assert abs(geo - 2 * a.alpha) <= 1e-9

    def test_fiber_roundtrip(self, rng):
        f = frame(random_rotation(rng)[:2])
        s = rng.normal(size=3)
        s /= np.linalg.norm(s)
        fib = hopf_fiber(f, s, "left")
        assert np.allclose(hopf_image(f, fib.basis[0], "left"), s, atol=1e-9)
        assert np.allclose(hopf_image(f, fib.basis[1], "left"), s, atol=1e-9)


class TestDecomposeRotation:
    def test_block_rotation_recovered(self):
        d = decompose_rotation(block_rotation(0.5, 1.2))
        assert np.allclose(sorted(abs(a) for a in d.angles), [0.5, 1.2])
        p1 = d.planes[0].basis.T @ d.planes[0].basis
        assert np.allclose(p1, np.diag([1.0, 1, 0, 0]), atol=1e-9)

    def test_isoclinic_right(self):
        d = decompose_rotation(block_rotation(0.7, 0.7))
        assert d.isoclinic and d.chirality is Chirality.RIGHT
        d = decompose_rotation(block_rotation(0.7, -0.7))
        assert d.isoclinic and d.chirality is Chirality.LEFT

    def test_conjugation_preserves_angles(self, rng):
        r0 = block_rotation(0.5, 1.2)
        for _ in range(10):
            s = random_rotation(rng)
            d = decompose_rotation(s @ r0 @ s.T)
            assert np.allclose(sorted(abs(a) for a in d.angles), [0.5, 1.2],
                               atol=1e-9)
            # invariant planes are the conjugated coordinate planes
            pr1 = d.planes[0].basis.T @ d.planes[0].basis
            want = s @ np.diag([1.0, 1, 0, 0]) @ s.T
            assert np.allclose(pr1, want, atol=1e-7)

    def test_reconstruct_roundtrip(self, rng):
        for _ in range(20):
            r = random_rotation(rng)
            try:
                d = decompose_rotation(r)
            except DegenerateRotationError:
                continue
            assert np.max(np.abs(d.reconstruct() - r)) <= 1e-9

    def test_identity_and_inversion_rejected(self):
        with pytest.raises(DegenerateRotationError):
            decompose_rotation(np.eye(4))
        with pytest.raises(DegenerateRotationError):
            decompose_rotation(-np.eye(4))


class TestMarkPair:
    def test_shared_direction(self):
        mc, md = mark_pair(E12, E13)
        for marks in (mc, md):
            assert np.allclose(np.abs(marks[:, 0]), 1, atol=1e-9)
            assert np.allclose(marks[0], -marks[1])

    def test_tilted_plane_marks(self):
        u = math.cos(0.2) * np.eye(4)[0] + math.sin(0.2) * np.eye(4)[2]
        v = math.cos(0.5) * np.eye(4)[1] + math.sin(0.5) * np.eye(4)[3]
        mc, md = mark_pair(E12, PlaneSpan(np.vstack([u, v])))
        assert np.allclose(np.abs(mc[:, 0]), 1, atol=1e-9)  # +-e1 on E12
        assert min(np.linalg.norm(md[0] - u), np.linalg.norm(md[0] + u)) < 1e-9

    def test_equivariance(self, rng):
        u = math.cos(0.2) * np.eye(4)[0] + math.sin(0.2) * np.eye(4)[2]
        v = math.cos(0.5) * np.eye(4)[1] + math.sin(0.5) * np.eye(4)[3]
        d = PlaneSpan(np.vstack([u, v]))
        mc, md = mark_pair(E12, d)
        r = random_rotation(rng)
        mcr, mdr = mark_pair(PlaneSpan(E12.basis @ r.T),
                             PlaneSpan(d.basis @ r.T))
        for orig, rot in ((mc, mcr), (md, mdr)):
            got = {tuple(np.round(p, 9)) for p in rot}
            want = {tuple(np.round(p, 9)) for p in orig @ r.T}
            assert got == want

    def test_clifford_parallel_rejected(self, rng):
        v = random_rotation(rng)
        p = PlaneSpan(v[:2].copy())
        q = clifford_pair(v, 0.4, 0.7, "right")
        with pytest.raises(ParallelPlanesError):
            mark_pair(p, q)


class TestVerifyRotation:
    def test_exact_copy(self, rng):
        a = rng.normal(size=(30, 4))
        r = random_rotation(rng)
        assert verify_rotation(PointSet4(a), PointSet4(a @ r.T), r)

    def test_perturbed_false(self, rng):
        a = rng.normal(size=(30, 4))
        r = random_rotation(rng)
        b = a @ r.T
        b[4, 2] += 1e-3
        assert not verify_rotation(PointSet4(a), PointSet4(b), r)

    def test_label_mismatch_false(self, rng):
        a = rng.normal(size=(6, 4))
        r = random_rotation(rng)
        la = ("x", "x", "y", "y", "z", "z")
        lb = ("x", "y", "x", "y", "z", "z")  # swapped across geometry
        assert verify_rotation(PointSet4(a, la), PointSet4(a @ r.T, la), r)
        assert not verify_rotation(PointSet4(a, la), PointSet4(a @ r.T, lb), r)


def test_constants_sane():
    assert CONSTANTS.delta0 == 5e-4
    assert CONSTANTS.kissing_3 == 12 and CONSTANTS.kissing_2 == 5
    # circle budget from the packing bound on the Grassmannian 5-sphere
    dmin = DELTA_MIN
    bound = (2 * math.pi ** 3) / ((8 / 15) * math.pi ** 2 * (dmin / 2) ** 5) / 2
    assert CONSTANTS.few_circles_cap == int(bound) == 829
