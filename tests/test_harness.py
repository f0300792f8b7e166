"""Brute-force oracle and the instance generators that feed it."""

import math

import numpy as np
import pytest

from hypercongruence import harness
from hypercongruence.geom import (EPS_EQ, PointSet4, circle_halves, frame,
                                  match_multisets, parallel, verify_rotation)
from hypercongruence.harness import (
    ORACLE_MAX,
    gen_congruent_pair,
    gen_hopf_circles,
    gen_orbit_helix,
    gen_regular_polytope,
    gen_torus_grid,
    oracle_congruent,
    random_rotation,
)
from hypercongruence.pipeline import congruence_test_4d


def gen_perturbed(a: np.ndarray, magnitude: float, seed: int) -> np.ndarray:
    """Copy of the set with one random point moved by exactly magnitude."""
    rng = np.random.default_rng(seed)
    out = np.array(a, dtype=float)
    i = int(rng.integers(len(out)))
    d = rng.normal(size=out.shape[1])
    out[i] += magnitude * d / np.linalg.norm(d)
    return out


class TestRandomRotation:
    def test_special_orthogonal(self, rng):
        for _ in range(20):
            r = random_rotation(rng)
            assert np.allclose(r @ r.T, np.eye(4), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_covers_both_angle_signs(self, rng):
        # double-quaternion sampling reaches non-isoclinic rotations: the
        # two rotation angles (eigenvalue arguments) differ
        spreads = [np.ptp(np.abs(np.angle(np.linalg.eigvals(
            random_rotation(rng))))) for _ in range(10)]
        assert max(spreads) > 1e-3


class TestOracle:
    def test_positive_all_small_sizes(self):
        for n in range(1, ORACLE_MAX + 1):
            a, b, r, t = gen_congruent_pair(n, 100 + n)
            v = oracle_congruent(a, b)
            assert v, n
            assert match_multisets(a @ v.rotation.T + v.translation, b, 1e-6)

    def test_negative_perturbed(self):
        for n in range(4, ORACLE_MAX + 1):
            a, b, _, _ = gen_congruent_pair(n, 200 + n)
            assert not oracle_congruent(a, gen_perturbed(b, 1e-3, n)), n

    def test_size_guard(self, rng):
        a = rng.normal(size=(ORACLE_MAX + 1, 4))
        with pytest.raises(ValueError):
            oracle_congruent(a, a)

    def test_size_mismatch_is_verdict(self, rng):
        a = rng.normal(size=(3, 4))
        v = oracle_congruent(a, a[:2])
        assert not v

    def test_collinear(self, rng):
        a = np.array([[0.0, 0, 0, 0], [1, 0, 0, 0], [3, 0, 0, 0]])
        r = random_rotation(rng)
        assert oracle_congruent(a, a @ r.T + 0.3)
        stretched = np.array([[0.0, 0, 0, 0], [1, 0, 0, 0], [3.001, 0, 0, 0]])
        assert not oracle_congruent(a, stretched)

    def test_planar_square(self, rng):
        sq = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0],
                       [-1, 0, 0, 0], [0, -1, 0, 0]])
        assert oracle_congruent(sq, sq @ random_rotation(rng).T - 2.0)

    def test_planar_mirror_is_rotation_in_4d(self):
        # rank-2 sets always extend a planar reflection through the free
        # 2-plane, so the mirrored L-shape is directly congruent
        ell = np.array([[0.0, 0, 0, 0], [1, 0, 0, 0],
                        [2, 0, 0, 0], [0, 1, 0, 0]])
        mirrored = ell.copy()
        mirrored[:, 0] *= -1
        assert oracle_congruent(ell, mirrored)

    def test_chiral_rank4_mirror(self):
        ch = np.array([[0.0, 0, 0, 0], [1, 0, 0, 0], [0, 2, 0, 0],
                       [0, 0, 3, 0], [0, 0, 0, 4]])
        chm = ch.copy()
        chm[:, 0] *= -1
        assert not oracle_congruent(ch, chm)
        v = oracle_congruent(ch, chm, allow_reflection=True)
        assert v and v.reflected
        assert np.linalg.det(v.rotation) == pytest.approx(-1.0)

    def test_rank_zero_against_spread_points(self):
        v = oracle_congruent(np.ones((3, 4)), np.eye(4)[:3])
        assert not v and v.stage == "rank"

    def test_dependent_image_tuple_is_skipped(self, monkeypatch):
        # A's tuple (x, y) spans a plane by 3e-7 > ORACLE_EPS; B's image
        # (x, x) matches its Gram within 100 eps but has no frame
        x, y = np.eye(4)[0], np.array([1.0, 3e-7, 0, 0])
        frames_seen = []

        def spy(vectors, eps):
            f = frame(vectors, eps)
            frames_seen.append(f)
            return f
        monkeypatch.setattr(harness, "frame", spy)
        v = oracle_congruent(np.array([x, -x, y, -y]),
                             np.array([x, -x, x, -x]))
        assert not v and v.stage == "exhausted"
        assert any(f is None for f in frames_seen[1:])

    def test_agrees_with_pipeline(self, rng):
        for i in range(120):
            n = int(rng.integers(1, ORACLE_MAX + 1))
            a, b, _, _ = gen_congruent_pair(n, 1000 + i)
            if i % 3 == 0 and n >= 2:
                b = gen_perturbed(b, 1e-2, i)
            vo = oracle_congruent(a, b)
            vp = congruence_test_4d(a, b)
            assert bool(vo) == bool(vp), (i, n, vo.stage, vp.stage)


class TestGenerators:
    def test_pair_ground_truth(self):
        for seed in range(10):
            a, b, r, t = gen_congruent_pair(50, seed)
            assert match_multisets(a @ r.T + t, b, 1e-9)

    def test_pair_reproducible(self):
        a1, b1, r1, t1 = gen_congruent_pair(20, 42)
        a2, b2, r2, t2 = gen_congruent_pair(20, 42)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
        assert np.array_equal(r1, r2) and np.array_equal(t1, t2)

    def test_torus_grid_square_case_is_hypercube(self):
        g = gen_torus_grid(4, 4, 1 / math.sqrt(2))
        assert len(g) == 16
        assert congruence_test_4d(g, gen_regular_polytope("4-cube"))

    def test_pair_rejects_empty(self):
        with pytest.raises(ValueError):
            gen_congruent_pair(0, 1)

    def test_torus_grid_rejects_small(self):
        with pytest.raises(ValueError):
            gen_torus_grid(2, 4, 0.5)
        with pytest.raises(ValueError):
            gen_torus_grid(4, 4, 1.0)

    def test_helix_properties(self):
        h = gen_orbit_helix(40, 9, 0.8)
        assert h.shape == (40, 4)
        assert np.allclose(np.linalg.norm(h, axis=1), 1.0)
        assert len({tuple(np.round(p, 9)) for p in h}) == 40

    def test_helix_requires_coprime(self):
        with pytest.raises(ValueError):
            gen_orbit_helix(40, 8, 0.8)
        with pytest.raises(ValueError):
            gen_orbit_helix(6, 1, 0.5)
        with pytest.raises(ValueError):
            gen_orbit_helix(20, 3, 1.0)

    def test_helix_seed_rotates(self):
        h0 = gen_orbit_helix(24, 5, 0.55)
        h1 = gen_orbit_helix(24, 5, 0.55, seed=5)
        assert not np.allclose(h0, h1)
        assert congruence_test_4d(h0, h1)

    def test_helix_closest_pair_formula(self):
        # distance between orbit points m steps apart
        ell, k, r1 = 20000, 3, 0.8
        r2 = math.sqrt(1 - r1 * r1)
        h = gen_orbit_helix(ell, k, r1)
        d7 = np.linalg.norm(h[0] - h[7])
        want = 2 * math.sqrt(r1 ** 2 * math.sin(math.pi * 7 / ell) ** 2
                             + r2 ** 2 * math.sin(math.pi * k * 7 / ell) ** 2)
        assert d7 == pytest.approx(want, abs=1e-12)

    def test_helix_min_gap_floor(self):
        # effective radius is at least 1, so the closest pair cannot drop
        # below the bare polygon gap
        for ell, k, r1 in ((16, 3, 0.3), (24, 7, 0.9), (40, 9, 0.8)):
            h = gen_orbit_helix(ell, k, r1)
            d = np.linalg.norm(h[:, None] - h[None, :], axis=2)
            gap = d[np.triu_indices(ell, 1)].min()
            assert gap >= 2 * math.sin(math.pi / ell) - 1e-12

    def test_hopf_circles(self):
        pts, circles = gen_hopf_circles(4, 10, 3)
        assert pts.shape == (40, 4)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
        assert len(circles) == 4
        # the fibers of one right bundle
        pairs = np.column_stack(np.triu_indices(4, 1))
        assert parallel(circle_halves(circles)[0], pairs, EPS_EQ).all()

    @pytest.mark.parametrize("m, samples", [(0, 3), (2, 2)])
    def test_hopf_circles_rejects_small(self, m, samples):
        with pytest.raises(ValueError):
            gen_hopf_circles(m, samples, 0)

    def test_polytope_counts_and_transitivity(self):
        for name, cnt in [("simplex", 5), ("cross", 8), ("4-cube", 16),
                          ("24-cell", 24), ("600-cell", 120)]:
            p = gen_regular_polytope(name)
            assert len(p) == cnt, name
            radii = np.linalg.norm(p - p.mean(0), axis=1)
            assert np.allclose(radii, radii[0]), name

    def test_polytope_aliases(self):
        assert np.array_equal(gen_regular_polytope("tesseract"),
                              gen_regular_polytope("4-cube"))
        assert np.array_equal(gen_regular_polytope("orthoplex"),
                              gen_regular_polytope("cross"))

    def test_polytope_unknown(self):
        with pytest.raises(ValueError):
            gen_regular_polytope("120-cell")

    def test_simplex_equilateral(self):
        s = gen_regular_polytope("simplex")
        d = np.linalg.norm(s[:, None] - s[None, :], axis=2)
        off = d[np.triu_indices(5, 1)]
        assert np.allclose(off, off[0])

    def test_600_cell_edge_length(self):
        p = gen_regular_polytope("600-cell")
        d = np.linalg.norm(p[:, None] - p[None, :], axis=2)
        phi = (1 + math.sqrt(5)) / 2
        assert d[d > 1e-9].min() == pytest.approx(1 / phi, abs=1e-12)

    def test_perturbed_moves_one_point_by_magnitude(self, rng):
        a = rng.normal(size=(30, 4))
        b = gen_perturbed(a, 1e-3, 9)
        diff = np.linalg.norm(b - a, axis=1)
        assert (diff > 0).sum() == 1
        assert diff.max() == pytest.approx(1e-3, abs=1e-15)

    def test_pipeline_roundtrip_on_families(self, rng):
        r = random_rotation(rng)
        for pts in (gen_torus_grid(5, 7, 0.6), gen_orbit_helix(24, 5, 0.55),
                    gen_regular_polytope("24-cell"),
                    gen_hopf_circles(3, 12, 11)[0]):
            v = congruence_test_4d(pts, pts @ r.T + 1.5)
            assert v, len(pts)
            centered = pts - pts.mean(0)
            assert verify_rotation(PointSet4(centered),
                                   PointSet4(centered @ r.T),
                                   v.rotation, 1e-6)
