"""Core geometry: plane angles, Pluecker coordinates,
chirality, circle halves, frames, rotation decomposition, marks,
verification."""

import math
from typing import NamedTuple

import numpy as np
import pytest
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.spatial import cKDTree

from conftest import (augmenting_match, pluecker_distance, rebuilt_step,
                      reference_match_multisets, step_angles)
from hypercongruence.circles import cycle_circle
from hypercongruence.geom import (CONSTANTS, DELTA_MIN, VERIFY_EPS, Chirality,
                                  PointSet4, Stalled, block_rotation,
                                  chirality, circle_halves, circle_of_halves,
                                  frame, frames, mark_pairs, match_multisets,
                                  plueckers, verify_rotation)
from hypercongruence.harness import (gen_orbit_helix, gen_regular_polytope,
                                     gen_torus_grid, random_rotation)

E12 = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
E34 = np.array([[0, 0, 1.0, 0], [0, 0, 0, 1.0]])
E13 = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])


class AnglePair(NamedTuple):
    """Principal angles between two planes, sorted, each in [0, pi/2]."""

    alpha: float
    beta: float


def angle_between_planes(p: np.ndarray, q: np.ndarray) -> AnglePair:
    """Principal angle pair of two planes via the SVD of the 2x2 overlap."""
    s = np.clip(np.linalg.svd(p @ q.T, compute_uv=False), -1.0, 1.0)
    return AnglePair(math.acos(s[0]), math.acos(s[1]))


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
    return np.vstack([u1, u2])


class TestPlaneAngles:
    def test_identical(self):
        a = angle_between_planes(E12, E12)
        assert a == AnglePair(0.0, 0.0)

    def test_completely_orthogonal(self):
        a = angle_between_planes(E12, E34)
        assert np.allclose(a, [math.pi / 2, math.pi / 2])

    def test_clifford_construction_angle(self, rng):
        v = random_rotation(rng)
        p = v[:2]
        q = clifford_pair(v, 0.3, 1.1, "right")
        a = angle_between_planes(p, q)
        assert np.allclose(a, [0.3, 0.3], atol=1e-12)

    def test_sorted_invariant(self, rng):
        for _ in range(20):
            p = random_rotation(rng)[:2]
            q = random_rotation(rng)[:2]
            a = angle_between_planes(p, q)
            assert 0 <= a.alpha <= a.beta <= math.pi / 2 + 1e-12


class TestPluecker:
    def test_axis_planes(self):
        assert np.allclose(plueckers([E12, E34]), [[1, 0, 0, 0, 0, 0],
                                                   [0, 0, 0, 0, 0, 1]])

    def test_basis_independent(self, rng):
        for _ in range(20):
            p = random_rotation(rng)[:2]
            th = rng.uniform(0, 2 * math.pi)
            c, s = math.cos(th), math.sin(th)
            rebased = np.vstack([c * p[0] + s * p[1], -s * p[0] + c * p[1]])
            assert np.allclose(*plueckers([p, rebased]), atol=1e-12)

    def test_quadric_and_norm(self, rng):
        for _ in range(50):
            v = plueckers(random_rotation(rng)[:2])[0]
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
            p = v[:2]
            q = clifford_pair(v, alpha, 0.9, "right")
            assert pluecker_distance(p, q) == pytest.approx(
                math.sqrt(2) * math.sin(alpha), abs=1e-12)

    def test_closed_form_general(self, rng):
        # coordinate distance == sqrt(2 (1 - cos a cos b)) on random pairs
        for _ in range(200):
            p = random_rotation(rng)[:2]
            q = random_rotation(rng)[:2]
            a = angle_between_planes(p, q)
            want = math.sqrt(2 * (1 - math.cos(a.alpha) * math.cos(a.beta)))
            assert abs(pluecker_distance(p, q) - want) <= 1e-9

    def test_rotation_invariant(self, rng):
        for _ in range(100):
            p = random_rotation(rng)[:2]
            q = random_rotation(rng)[:2]
            r = random_rotation(rng)
            pr = p @ r.T
            qr = q @ r.T
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
            p = v[:2]
            d = rng.uniform(0, 2 * math.pi)
            assert chirality(p, clifford_pair(v, 0.4, d, "right")) \
                is Chirality.RIGHT
            assert chirality(p, clifford_pair(v, 0.4, d, "left")) \
                is Chirality.LEFT

    def test_generic_not_isoclinic(self, rng):
        p = random_rotation(rng)[:2]
        q = random_rotation(rng)[:2]
        assert chirality(p, q) is Chirality.NOT_ISOCLINIC

    @pytest.mark.parametrize("beta", [1e-5, 4e-5])
    def test_near_coincident_not_isoclinic(self, beta):
        # principal angles (0, beta): both chords of the halves are about
        # beta, while the cosines of the angles differ by only beta^2 / 2
        q = np.array([[1.0, 0, 0, 0], [0, math.cos(beta), 0, math.sin(beta)]])
        assert chirality(E12, q, 1e-9) is Chirality.NOT_ISOCLINIC

    def test_bases_checked(self):
        with pytest.raises(ValueError, match=r"orthonormal \(2, 4\) bases"):
            chirality(np.eye(4)[:3], E12)
        with pytest.raises(ValueError, match=r"orthonormal \(2, 4\) bases"):
            chirality(E12, np.array([[1.0, 0, 0, 0], [0.6, 0.8, 0, 0]]))

    def test_right_transitive_in_bundle(self, rng):
        # fibers of one bundle are pairwise right, in any combination
        sigma = circle_halves(random_rotation(rng)[None, :2])[0][0]
        fibs = [circle_of_halves(sigma, s / np.linalg.norm(s))
                for s in rng.normal(size=(4, 3))]
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

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stack_equals_rows(self, rng, k):
        stack = rng.normal(size=(40, k, 4))
        stack[1] = 0.0
        stack[1, :, 0] = np.arange(1.0, k + 1)         # degenerate for k > 1
        stack[2] = 0.0
        stack[2, 0, 0] = -1.0                          # Q = I, R = -1: flipped
        stack[2, 1:, 1:k] = np.eye(k - 1)
        f, ok = frames(stack)
        assert ok[1] == (k == 1) and ok[2]
        assert np.array_equal(f[2, 0], [-1.0, 0, 0, 0])
        assert f[2, -1, -1] == -1.0                    # the det flip
        for row, fi, oki in zip(stack, f, ok):
            single = frame(row)
            assert (single is not None) == oki
            if oki:
                assert np.array_equal(single, fi)
                assert np.linalg.det(fi) > 0


def qr_frames(stack, eps: float = 1e-9):
    """Reference for :func:`frames`: one stacked complete QR.

    Given row i takes the sign of R_ii, the last row the sign that makes
    the determinant positive.  Returns (F, ok, min |R_ii|), ok being
    min |R_ii| >= eps.
    """
    a = np.asarray(stack, dtype=float)
    k = a.shape[-2]
    q, r = np.linalg.qr(np.swapaxes(a, -1, -2), mode="complete")
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    f = np.swapaxes(q, -1, -2).copy()
    f[..., :k, :] *= np.copysign(1.0, diag)[..., None]
    f[np.linalg.det(f) < 0, -1] *= -1.0
    r_min = np.abs(diag).min(axis=-1)
    return f, r_min >= eps, r_min


def mixed_rows(rng, m: int, k: int, d: int) -> np.ndarray:
    """m stacks of k rows in R^d, each stack a unit lower-triangular mix of
    orthonormal rows with row scales in [0.5, 2]: condition number < 10."""
    o = np.linalg.qr(rng.normal(size=(m, d, d)))[0][:, :k]
    mix = np.eye(k) + np.tril(rng.uniform(-0.5, 0.5, size=(m, k, k)), -1)
    return rng.uniform(0.5, 2.0, size=(m, k, 1)) * (mix @ o)


def near_axis_rows(rng, m: int, k: int, d: int) -> np.ndarray:
    """m stacks of k signed distinct coordinate axes, each moved by up to
    1e-3 in a random direction (down to 1e-16)."""
    axes = np.array([np.eye(d)[rng.permutation(d)[:k]] for _ in range(m)])
    axes *= rng.choice([-1.0, 1.0], size=(m, k, 1))
    tilt = 10.0 ** rng.uniform(-16, -3, size=(m, 1, 1))
    return axes + tilt * rng.normal(size=(m, k, d))


def orthonormality_error(f: np.ndarray) -> float:
    return float(np.abs(f @ np.swapaxes(f, -1, -2) - np.eye(f.shape[-1])).max())


KD = [(1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]


class TestFrames:
    """The closed-form stacked frames against the QR reference."""

    @pytest.mark.parametrize("k, d", KD)
    def test_equals_qr_on_well_conditioned_rows(self, rng, k, d):
        stack = np.concatenate([mixed_rows(rng, 400, k, d),
                                near_axis_rows(rng, 400, k, d)])
        f, ok = frames(stack)
        g, ok_ref, _ = qr_frames(stack)
        assert ok.all() and ok_ref.all()
        # the given rows span fixed flags, and for k = d - 1 so does the
        # last row; free middle rows are a choice and are not compared
        fixed = list(range(k)) + ([d - 1] if k == d - 1 else [])
        assert np.abs(f[:, fixed] - g[:, fixed]).max() <= 1e-13
        assert orthonormality_error(f) <= 2e-15
        assert (np.linalg.det(f) > 0).all()

    @pytest.mark.parametrize("k, d", KD)
    def test_near_dependent_rows(self, rng, k, d):
        # the last vector lies at distance ~t from the span of the others,
        # t from 1e-12 to 1e-2: ok changes sides at eps = 1e-9
        stack = mixed_rows(rng, 2000, k, d)
        t = 10.0 ** rng.uniform(-12, -2, size=(2000, 1))
        coef = rng.normal(size=(2000, k - 1))
        stack[:, -1] = np.einsum("mj,mjd->md", coef, stack[:, :-1]) + \
            t * rng.normal(size=(2000, d))
        f, ok = frames(stack)
        g, ok_ref, r_min = qr_frames(stack)
        outside_band = np.abs(r_min / 1e-9 - 1.0) > 1e-3
        assert np.array_equal(ok[outside_band], ok_ref[outside_band])
        assert ok.any() and not ok.all()
        assert orthonormality_error(f) <= 2e-15
        assert (np.linalg.det(f) > 0).all()
        assert np.abs(f[:, :k - 1] - g[:, :k - 1]).max(initial=0.0) <= 1e-13
        # the last given row loses about u |v| / |R_kk| to cancellation in
        # both methods, and so does the last frame row when it is fixed
        fixed = [k - 1] + ([d - 1] if k == d - 1 else [])
        err = np.abs(f[:, fixed] - g[:, fixed]).max(axis=(1, 2))
        assert (err[ok] * r_min[ok] <= 1e-14).all()

    @pytest.mark.parametrize("eps", [1e-9, 0.0])
    def test_dependent_rows_stay_finite(self, rng, eps):
        v = rng.normal(size=4)
        e = np.eye(4)
        stacks = [
            [[0 * v]],
            [[e[0], 2 * e[0]], [v, -3 * v], [0 * v, v], [0 * v, 0 * v]],
            [[e[0], e[1], e[0] - e[1]], [v, 2 * v, e[2]], [e[3], e[3], e[3]]],
        ]
        for rows in stacks:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                f, ok = frames(np.array(rows, dtype=float), eps)
            _, ok_ref, r_min = qr_frames(rows, eps)
            assert np.isfinite(f).all()
            assert orthonormality_error(f) <= 2e-15
            assert (np.linalg.det(f) > 0).all()
            assert not ok[r_min < eps].any()
            if eps == 0.0:
                assert ok.all()
        # a zero residual takes the least-weight axis: [e0, 2 e0] -> e1
        f, _ = frames(np.array([[e[0], 2 * e[0]]]), 0.0)
        assert np.array_equal(f[0], e)


class TestHalves:
    def random_circles(self, rng, m):
        return [random_rotation(rng)[:2] for _ in range(m)]

    def test_round_trip(self, rng):
        circles = [E12, E34, E13] + self.random_circles(rng, 200)
        sigma, tau = circle_halves(circles)
        assert np.allclose(np.linalg.norm(sigma, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(tau, axis=1), 1.0, atol=1e-12)
        for c, s, t in zip(circles, sigma, tau):
            assert pluecker_distance(circle_of_halves(s, t), c) <= 1e-12

    def test_right_pair_geodesic_is_twice_alpha(self, rng):
        sigma = circle_halves(random_rotation(rng)[None, :2])[0][0]
        for _ in range(50):
            s1, s2 = rng.normal(size=(2, 3))
            s1 /= np.linalg.norm(s1)
            s2 /= np.linalg.norm(s2)
            c = circle_of_halves(sigma, s1)
            d = circle_of_halves(sigma, s2)
            a = angle_between_planes(c, d)
            assert abs(a.alpha - a.beta) < 1e-9
            geo = math.acos(np.clip(s1 @ s2, -1, 1))
            assert abs(geo - 2 * a.alpha) <= 1e-9

    def test_reflection_swaps_halves(self, rng):
        mirror = np.diag([-1.0, 1.0, 1.0, 1.0])
        circles = self.random_circles(rng, 20)
        sigma, tau = circle_halves(circles)
        sigma_m, tau_m = circle_halves([c @ mirror for c in circles])
        assert np.allclose(sigma_m, -tau, atol=1e-12)
        assert np.allclose(tau_m, -sigma, atol=1e-12)
        swap = {Chirality.RIGHT: Chirality.LEFT, Chirality.LEFT: Chirality.RIGHT}
        for kind in ("right", "left"):
            v = random_rotation(rng)
            p = v[:2]
            q = clifford_pair(v, 0.4, rng.uniform(0, 2 * math.pi), kind)
            want = swap[chirality(p, q)]
            assert chirality(p @ mirror, q @ mirror) is want

    def test_rotation_keeps_chirality(self, rng):
        for _ in range(20):
            v = random_rotation(rng)
            p = v[:2]
            d = rng.uniform(0, 2 * math.pi)
            r = random_rotation(rng)
            for q in (clifford_pair(v, 0.4, d, "right"),
                      clifford_pair(v, 0.4, d, "left"),
                      v[2:], random_rotation(rng)[:2]):
                assert chirality(p @ r.T, q @ r.T) is chirality(p, q)


class TestDecomposeRotation:
    """A cycle's step rotation split into its circle, the complementary
    plane and the angle it turns each by, as circles.cycle_circle does."""

    @staticmethod
    def orbit(step, ell, rng):
        p = rng.normal(size=4)
        p /= np.linalg.norm(p)
        return np.array([np.linalg.matrix_power(step, j) @ p
                         for j in range(ell)])

    def test_conjugation_preserves_angles(self, rng):
        r0 = block_rotation(2 * np.pi * 3 / 40, 2 * np.pi * 8 / 40)
        for _ in range(10):
            s = random_rotation(rng)
            orbit = self.orbit(s @ r0 @ s.T, 40, rng)
            c = cycle_circle(orbit, range(40))
            assert np.allclose(np.abs(step_angles(orbit, c)),
                               [2 * np.pi * 3 / 40, 2 * np.pi * 8 / 40],
                               atol=1e-9)
            # the circle is the conjugated slow coordinate plane
            want = s @ np.diag([1.0, 1, 0, 0]) @ s.T
            assert np.allclose(c.T @ c, want, atol=1e-9)

    def test_reconstruct_roundtrip(self, rng):
        for _ in range(20):
            ell = int(rng.integers(5, 61))
            a, b = (rng.choice(np.arange(1, (ell + 1) // 2), 2, replace=False)
                    * rng.choice([-1, 1], 2))
            if math.gcd(math.gcd(a, b), ell) > 1:
                continue
            s = random_rotation(rng)
            step = s @ block_rotation(2 * np.pi * a / ell,
                                      2 * np.pi * b / ell) @ s.T
            orbit = self.orbit(step, ell, rng)
            c = cycle_circle(orbit, range(ell))
            assert np.max(np.abs(rebuilt_step(orbit, c) - step)) <= 1e-9

    def test_identity_and_inversion_rejected(self, rng):
        p = random_rotation(rng)[0]
        for cycle in ([p, p, p], [p, -p]):
            with pytest.raises(Stalled, match="isoclinic"):
                cycle_circle(np.array(cycle), range(len(cycle)))


def marks_of(c, d):
    """The marks (on c, on d) of one non-parallel pair, each (2, 4)."""
    marks, ok = mark_pairs(c, d)
    assert ok.tolist() == [True]
    return marks[:2], marks[2:]


class TestMarkPair:
    def test_shared_direction(self):
        mc, md = marks_of(E12, E13)
        for marks in (mc, md):
            assert np.allclose(np.abs(marks[:, 0]), 1, atol=1e-9)
            assert np.allclose(marks[0], -marks[1])

    def test_tilted_plane_marks(self):
        u = math.cos(0.2) * np.eye(4)[0] + math.sin(0.2) * np.eye(4)[2]
        v = math.cos(0.5) * np.eye(4)[1] + math.sin(0.5) * np.eye(4)[3]
        mc, md = marks_of(E12, np.vstack([u, v]))
        assert np.allclose(np.abs(mc[:, 0]), 1, atol=1e-9)  # +-e1 on E12
        assert min(np.linalg.norm(md[0] - u), np.linalg.norm(md[0] + u)) < 1e-9

    def test_equivariance(self, rng):
        u = math.cos(0.2) * np.eye(4)[0] + math.sin(0.2) * np.eye(4)[2]
        v = math.cos(0.5) * np.eye(4)[1] + math.sin(0.5) * np.eye(4)[3]
        d = np.vstack([u, v])
        mc, md = marks_of(E12, d)
        r = random_rotation(rng)
        mcr, mdr = marks_of(E12 @ r.T, d @ r.T)
        for orig, rot in ((mc, mcr), (md, mdr)):
            got = {tuple(np.round(p, 9)) for p in rot}
            want = {tuple(np.round(p, 9)) for p in orig @ r.T}
            assert got == want

    def test_clifford_parallel_rejected(self, rng):
        v = random_rotation(rng)
        p = v[:2]
        q = clifford_pair(v, 0.4, 0.7, "right")
        assert mark_pairs(p, q)[1].tolist() == [False]

    def test_stack_is_pairs_in_turn(self, rng):
        # one call over k pairs: the marks c+, c-, d+, d- of each pair in
        # turn, as one call per pair gives them, and ok per pair
        v = random_rotation(rng)
        c = np.array([random_rotation(rng)[:2] for _ in range(5)] + [v[:2]])
        d = np.array([random_rotation(rng)[:2] for _ in range(5)]
                     + [clifford_pair(v, 0.4, 0.7, "left")])
        marks, ok = mark_pairs(c, d)
        assert ok.tolist() == [True] * 5 + [False]
        for i in range(5):
            assert np.array_equal(marks[4 * i:4 * i + 4],
                                  np.vstack(marks_of(c[i], d[i])))


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


class TestPairedVerify:
    # match_multisets first pairs the rows of both sides in order of their
    # norms; a pairing that fails makes it search, and never rejects
    @staticmethod
    def gaussian_pair(rng, n=40):
        """(A, B, r, perm): B is A turned by r and shuffled by perm."""
        a = rng.normal(size=(n, 4))
        r = random_rotation(rng)
        perm = rng.permutation(n)
        return PointSet4(a), PointSet4((a @ r.T)[perm]), r, perm

    def test_norm_order_needs_no_tree(self, rng, geom_trees):
        a, b, r, _ = self.gaussian_pair(rng)
        assert verify_rotation(a, b, r)
        assert geom_trees == []

    def test_moved_partner_rejected(self, rng, geom_trees):
        a, b, r, perm = self.gaussian_pair(rng)
        step = rng.normal(size=4)
        b.points[np.argsort(perm)[5]] += (2 * VERIFY_EPS * step
                                          / np.linalg.norm(step))
        assert not verify_rotation(a, b, r)
        assert geom_trees == [(40, 4)]

    @pytest.mark.parametrize("fault", ["label mismatch", "swapped partners"])
    def test_wrong_pairing_falls_back(self, rng, geom_trees, fault):
        if fault == "label mismatch":
            # coincident rows 0 and 1 under swapped labels: both sides
            # hold the same rows, so the norm order pairs row i with row i
            x = rng.normal(size=(40, 4))
            x[1] = x[0]
            lx = np.arange(40)
            ly = lx.copy()
            ly[:2] = [1, 0]
            a, b = PointSet4(x, lx), PointSet4(x.copy(), ly)
        else:
            # the unit axes, all of norm 1, in reversed order
            x = np.r_[np.eye(4), -np.eye(4)]
            a, b = PointSet4(x), PointSet4(x[::-1])
        assert verify_rotation(a, b, np.eye(4))
        assert geom_trees == [(len(x), 4)]


def greedy_match(x, y, eps, lx, ly):
    """The greedy loop match_multisets once ran: candidate lists, fewest
    first, each taking its first free candidate."""
    cand = cKDTree(y).query_ball_point(x, r=eps)
    used = set()
    for i in sorted(range(len(x)), key=lambda i: len(cand[i])):
        hit = next((j for j in cand[i] if j not in used and lx[i] == ly[j]),
                   None)
        if hit is None:
            return False
        used.add(hit)
    return True


def exact_match(x, y, eps, lx, ly):
    """match_multisets as augmenting paths over all candidate lists."""
    cand = cKDTree(y).query_ball_point(x, r=eps)
    return augmenting_match([[j for j in c if lx[i] == ly[j]]
                             for i, c in enumerate(cand)])


class TestMatchMultisets:
    def test_shape_mismatch_false(self, rng):
        a = rng.normal(size=(5, 4))
        assert not match_multisets(a, a[:4])
        assert not match_multisets(a, a[:, :3])

    def test_empty_sets_match(self):
        assert match_multisets(np.zeros((0, 4)), np.zeros((0, 4)))
        assert match_multisets(np.zeros((0, 4)), np.zeros((0, 4)), 1e-9, (), ())

    def test_empty_against_nonempty_false(self):
        assert not match_multisets(np.zeros((0, 4)), np.ones((1, 4)))

    def test_two_points_share_their_only_candidate(self):
        # both points of x see only y[0]; y[1] is out of reach of both
        x = np.array([[0.0, 0.0], [0.0, 1e-9]])
        y = np.array([[0.0, 0.5e-9], [5.0, 0.0]])
        assert not match_multisets(x, y, 1e-8)
        assert match_multisets(x, np.array([[0.0, 0.5e-9], [0.0, 1e-9]]), 2e-9)

    def test_only_candidate_with_the_wrong_label(self):
        x = np.array([[0.0, 0.0], [3.0, 0.0]])
        assert match_multisets(x, x[::-1], 1e-9, ["p", "q"], ["q", "p"])
        assert not match_multisets(x, x[::-1], 1e-9, ["p", "q"], ["p", "q"])
        assert not match_multisets(x, x, 1e-9, np.array([0, 1]),
                                   np.array([0, 2]))

    def test_unique_and_ambiguous_candidates(self, rng):
        # at eps = 1e-9 the two points 1e-10 apart have two candidates
        # each, the 20 others one; with labels only one choice matches
        far = rng.normal(size=(20, 3)) * 10
        pair = np.array([[0.0, 0.0, 0.0], [1e-10, 0.0, 0.0]])
        x = np.vstack([far, pair])
        y = np.vstack([far[::-1], pair[::-1]])
        lx = list(range(22))
        ly = list(range(19, -1, -1)) + [21, 20]
        assert match_multisets(x, y, 1e-9)
        assert match_multisets(x, y, 1e-9, lx, ly)
        assert not match_multisets(x, y, 1e-9, lx, ly[:-2] + [21, 21])

    def test_ball_boundary_matches_query_ball_point(self):
        # a candidate exactly eps away counts, as query_ball_point has it
        x = np.array([[0.0, 0.0], [8.0, 0.0]])
        y = np.array([[0.25, 0.0], [8.0, 0.0]])
        assert cKDTree(y).query_ball_point(x[0], r=0.25) == [0]
        assert match_multisets(x, y, 0.25)
        assert not match_multisets(x, y, np.nextafter(0.25, 0.0))

    def test_label_rows_at_the_matching_step(self, monkeypatch):
        # 2-D int labels, one row per point, as the torus translation test
        # passes them: coincident points with distinct label rows have two
        # candidates each, and the norm-order prefix pairs unequal rows
        import hypercongruence.geom as geom
        calls = []

        def counted(graph, perm_type):
            calls.append(graph.shape)
            return maximum_bipartite_matching(graph, perm_type=perm_type)

        monkeypatch.setattr(geom, "maximum_bipartite_matching", counted)
        x = np.repeat(np.eye(4)[:2], 2, axis=0)
        lx = np.array([[0, 1], [0, 2], [0, 1], [0, 2]])
        assert match_multisets(x, x.copy(), 1e-8, lx, lx[[1, 0, 3, 2]])
        assert not match_multisets(x, x.copy(), 1e-8, lx, lx[[0, 2, 1, 3]])
        assert calls == [(4, 4), (4, 4)]

    def test_equals_exact_matching_reference(self, rng):
        # clusters of near-duplicates give points with 0, 1 and several
        # candidates; the array settling and the matching must decide as
        # augmenting paths over all points do
        missed = 0
        for _ in range(200):
            k = int(rng.integers(1, 6))
            centers = rng.normal(size=(k, 3))
            x = centers[rng.integers(0, k, 12)] + \
                rng.normal(scale=1e-9, size=(12, 3))
            y = x[rng.permutation(12)] + rng.normal(scale=1e-9, size=(12, 3))
            lx = rng.integers(0, 2, 12)
            ly = lx[rng.permutation(12)]
            for eps in (1e-10, 3e-9, 1e-8):
                got = match_multisets(x, y, eps, lx, ly)
                assert got == exact_match(x, y, eps, lx.tolist(), ly.tolist())
                missed += got and not greedy_match(x, y, eps, lx.tolist(),
                                                   ly.tolist())
        # some of these bijections the greedy loop misses
        assert missed > 0

    def test_equals_ball_count_reference(self, rng):
        # near-duplicate clusters give points several candidates; one point
        # moved out of reach, two labels swapped and single-point sets are
        # variants, and on a dyadic grid candidates lie exactly eps away
        unit = 2.0 ** -30
        cases = []
        for _ in range(150):
            k, n = int(rng.integers(1, 6)), int(rng.integers(1, 16))
            x = rng.normal(size=(k, 4))[rng.integers(0, k, n)] + \
                rng.normal(scale=1e-9, size=(n, 4))
            perm = rng.permutation(n)
            y = x[perm] + rng.normal(scale=1e-9, size=(n, 4))
            lx = rng.integers(0, 3, n)
            ly = lx[perm]
            far = y.copy()
            far[0] += 1.0
            swapped = ly.copy()
            swapped[[0, -1]] = swapped[[-1, 0]]
            for eps in (1e-10, 3e-9, 1e-8):
                cases += [(x, y, eps, lx, ly), (x, far, eps, lx, ly),
                          (x, y, eps, lx, swapped),
                          (x[:1], y[:1], eps, lx[:1], ly[:1])]
            grid = unit * rng.integers(-2, 3, size=(n, 4)).astype(float)
            shift = np.zeros(4)
            shift[int(rng.integers(4))] = unit
            lg = rng.integers(0, 2, n)
            for eps in (unit, np.nextafter(unit, 0.0), 2 * unit):
                cases += [(grid, grid[perm] + shift, eps, lg, lg[perm]),
                          (grid[:1], grid[:1] + shift, eps, lg[:1], lg[:1])]
        verdicts = set()
        for x, y, eps, lx, ly in cases:
            got = match_multisets(x, y, eps, lx, ly)
            assert got == reference_match_multisets(x, y, eps, lx, ly)
            verdicts.add(got)
        assert verdicts == {False, True}

    @pytest.mark.parametrize("points, scale", [
        (gen_orbit_helix(200, 3, 0.8), 1e-5),
        (gen_orbit_helix(200, 3, 0.8), 1e-6),
        (gen_regular_polytope("600-cell"), 1e-6),
        (gen_torus_grid(12, 13, 0.6), 1e-6)],
        ids=["helix-1e-5", "helix-1e-6", "600-cell-1e-6", "grid-1e-6"])
    def test_copy_with_closest_pairs_below_the_tolerance(self, points, scale,
                                                          rng):
        # every point has several candidates within VERIFY_EPS; a rotated,
        # permuted exact copy still matches
        a = points * scale @ random_rotation(rng).T
        assert match_multisets(a, a[rng.permutation(len(a))], VERIFY_EPS)

    def test_one_sided_labels_raise(self, rng):
        a = rng.normal(size=(4, 4))
        with pytest.raises(ValueError):
            match_multisets(a, a, 1e-9, ["x"] * 4, None)
        with pytest.raises(ValueError):
            match_multisets(a, a, 1e-9, None, ["x"] * 4)


def test_constants_sane():
    assert CONSTANTS.delta0 == 5e-4
    # circle budget from the packing bound on the Grassmannian 5-sphere
    dmin = DELTA_MIN
    bound = (2 * math.pi ** 3) / ((8 / 15) * math.pi ** 2 * (dmin / 2) ** 5) / 2
    assert CONSTANTS.few_circles_cap == int(bound) == 829
