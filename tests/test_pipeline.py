"""End-to-end congruence pipeline behavior."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import arc_array
from hypercongruence import iterprune, pipeline
from hypercongruence.circles import mirror_reduce
from hypercongruence.condense import (TWO_PI, members_by_id, merge_close,
                                      merge_points)
from hypercongruence.geom import block_rotation, circle_of_halves
from hypercongruence.harness import (
    gen_orbit_helix,
    gen_regular_polytope,
    gen_torus_grid,
    oracle_congruent,
    random_rotation,
)
from hypercongruence.lowdim import one_plus_three_reduce
from hypercongruence.pipeline import (MIRROR_X1, PipelineOptions, _lockstep,
                                      congruence_test_4d)


def transformed(a, rng, translation=None):
    r = random_rotation(rng)
    t = rng.normal(size=4) if translation is None else translation
    return a @ r.T + t


def assert_roundtrip(a, rng, opts=None, tol=1e-6):
    b = transformed(np.asarray(a, float), rng)
    v = congruence_test_4d(a, b[rng.permutation(len(b))], opts)
    assert v.congruent
    mapped = a @ v.rotation.T + v.translation
    assert cKDTree(b).query(mapped)[0].max() <= tol
    return v


def quaternion_orbit(lefts, rights, p):
    """The points l * p * conj(r) for unit quaternions l, r (rows w, x, y,
    z), duplicates removed."""
    def mul(a, b):
        return np.stack([a[:, 0] * b[:, 0] - np.sum(a[:, 1:] * b[:, 1:], 1),
                         *(a[:, :1] * b[:, 1:] + b[:, :1] * a[:, 1:]
                           + np.cross(a[:, 1:], b[:, 1:])).T], 1)
    lp = mul(np.asarray(lefts, float), np.tile(p, (len(lefts), 1)))
    conj = np.asarray(rights, float) * [1, -1, -1, -1]
    pts = mul(np.repeat(lp, len(conj), 0), np.tile(conj, (len(lp), 1)))
    return np.unique(np.round(pts, 12), axis=0)


def fiber_polygon(tau, n: int) -> np.ndarray:
    """A regular n-gon on the fiber over tau of the right Hopf bundle of
    the circle e0 e1 (sigma = e0 of its halves).  It starts at the point of
    the fiber nearest e0 and turns toward e1, so it does not depend on the
    basis the fiber comes with; tau = -e0, the fiber e2 e3, has no such
    point."""
    basis = circle_of_halves([1.0, 0.0, 0.0], tau)
    u, v = (w / np.linalg.norm(w) for w in basis[:, :2].T @ basis)
    t = np.arange(n) * TWO_PI / n
    return np.cos(t)[:, None] * u + np.sin(t)[:, None] * v


def hopf_12gons() -> np.ndarray:
    """Three 12-gons on fibers of one Hopf bundle, at base angles 0, 120
    and 240 degrees on a great circle through the base points of e0 e1 and
    e2 e3."""
    return np.concatenate([
        fiber_polygon(np.array([0.0, -math.cos(g), math.sin(g)]), 12)
        for g in (0.0, TWO_PI / 3, 2 * TWO_PI / 3)])


def binary_tetrahedral() -> np.ndarray:
    """The 24 unit quaternions of the binary tetrahedral group."""
    return np.vstack([np.eye(4), -np.eye(4),
                      np.array(list(itertools.product([-0.5, 0.5], repeat=4)))])


class TestSmallSets:
    def test_single_point(self, rng):
        assert_roundtrip(rng.normal(size=(1, 4)), rng)

    def test_two_points(self, rng):
        assert_roundtrip(rng.normal(size=(2, 4)), rng)

    def test_three_points(self, rng):
        assert_roundtrip(rng.normal(size=(3, 4)), rng)

    def test_all_coincident(self, rng):
        assert_roundtrip(np.ones((5, 4)), rng)

    def test_cardinality_mismatch_raises(self, rng):
        a = rng.normal(size=(4, 4))
        with pytest.raises(ValueError):
            congruence_test_4d(a, a[:3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["a", "b", "both"])
    def test_non_finite_coordinates_raise(self, rng, bad, where):
        a = rng.normal(size=(6, 4))
        b = transformed(a, rng)
        if where in ("a", "both"):
            a[2, 1] = bad
        if where in ("b", "both"):
            b[4, 3] = bad
        # rejected before centering, so no RuntimeWarning comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                congruence_test_4d(a, b)


class TestOptions:
    @pytest.mark.parametrize("delta0", [2.0, 2.5, math.nan, math.inf,
                                        -math.inf])
    def test_delta0_below_the_antipodal_distance(self, delta0):
        with pytest.raises(ValueError, match="delta0"):
            PipelineOptions(delta0=delta0)

    @pytest.mark.parametrize("few_cap", [0, -1])
    def test_few_cap_at_least_one(self, few_cap):
        with pytest.raises(ValueError, match="few_cap"):
            PipelineOptions(few_cap=few_cap)

    def test_antipodal_pairs_below_the_bound(self):
        # at delta0 = 2 the antipodal pair ±e1 would be a closest pair
        e = np.eye(4)
        v = congruence_test_4d(np.r_[e[:1], -e[:1]], np.r_[e[1:2], -e[1:2]],
                               PipelineOptions(delta0=1.99))
        assert v.congruent

    def test_polygon_at_the_least_few_cap(self, rng):
        # at few_cap = 0 the 12-gon's one circle passed M3 and reached a
        # closest-pair graph of one point
        t = np.arange(12) * TWO_PI / 12
        a = np.c_[np.cos(t), np.sin(t), np.zeros((12, 2))]
        assert_roundtrip(a, rng, PipelineOptions(delta0=1.5, few_cap=1))


class TestGenericClouds:
    def test_random_cloud(self, rng):
        assert_roundtrip(rng.normal(size=(4096, 4)), rng)

    def test_perturbed_rejected(self, rng):
        a = rng.normal(size=(256, 4))
        b = a @ random_rotation(rng).T + 0.3
        b[17] += 1e-3 * rng.normal(size=4)
        v = congruence_test_4d(a, b)
        assert not v.congruent
        assert v.stage

    def test_scale_mismatch_rejected(self, rng):
        a = rng.normal(size=(13, 4))
        v = congruence_test_4d(a, a * 1.5)
        assert not v.congruent

    @pytest.mark.parametrize("seed", range(12))
    def test_anchor_near_coordinate_axis(self, seed):
        # the single anchor (the smallest-norm point) sits 2e-6 off the
        # first coordinate axis, where an axis-cut basis completion loses
        # orthonormality
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(200, 4))
        a -= a.mean(axis=0)
        p = a[np.argmin(np.linalg.norm(a, axis=1))]
        u = p / np.linalg.norm(p)
        target = np.array([1.0, 2e-6, 0, 0]) / np.linalg.norm([1.0, 2e-6])
        w = u - target
        house = np.eye(4) - 2.0 * np.outer(w, w) / (w @ w)
        a = a @ (np.diag([1.0, 1, 1, -1]) @ house).T
        b = (a @ random_rotation(rng).T + rng.normal(size=4))[rng.permutation(200)]
        assert congruence_test_4d(a, b).congruent


class TestAntipodalNoise:
    @staticmethod
    def false_negatives(noise):
        misses = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            u = rng.normal(size=(200, 4))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            a = np.vstack([u, -u])
            b = transformed(a, rng)[rng.permutation(len(a))]
            b = b + noise * rng.normal(size=b.shape)
            misses += not congruence_test_4d(a, b).congruent
        return misses

    def test_noise_1e12_never_rejected(self):
        # the 1+3 anchor class is the most isolated one, the best
        # conditioned; the least-distance class loses some of these pairs
        assert self.false_negatives(1e-12) == 0

    def test_noise_1e11_never_rejected(self):
        assert self.false_negatives(1e-11) == 0

    def test_noise_1e10_never_rejected(self):
        # the anchor's 3-slice holds only singleton tokens, which pin its
        # rotation by a least-squares fit over all of them
        assert self.false_negatives(1e-10) == 0


class TestGaussNoise:
    @staticmethod
    def false_negatives(noise):
        misses = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(300, 4))
            b = transformed(a, rng)[rng.permutation(len(a))]
            b = b + noise * rng.normal(size=b.shape)
            misses += not congruence_test_4d(a, b).congruent
        return misses

    def test_noise_1e12_never_rejected(self):
        assert self.false_negatives(1e-12) == 0

    def test_noise_1e11_never_rejected(self):
        assert self.false_negatives(1e-11) == 0

    def test_noise_3e11_never_rejected(self):
        # every radius class holds one point, and those points pin the
        # rotation by a least-squares fit over all of them
        assert self.false_negatives(3e-11) == 0

    def test_noise_1e10_never_rejected(self):
        assert self.false_negatives(1e-10) == 0

    def test_noise_3e10_never_rejected_at_anchor_alignment(self):
        # noise this large splits or joins radius classes on some pairs, but
        # once the radius classes agree, the pinned fit over every singleton
        # must not reject
        stages = []
        for seed in range(1000, 1060):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(50, 1501))
            a = rng.normal(size=(n, 4))
            b = transformed(a, rng)[rng.permutation(n)]
            b = b + 3e-10 * rng.normal(size=b.shape)
            v = congruence_test_4d(a, b)
            stages += [] if v.congruent else [v.stage]
        assert "anchor alignment" not in stages


class TestPinnedExit:
    @pytest.fixture
    def reductions(self, monkeypatch):
        """The calls of the 1+3 step the pipeline makes."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return one_plus_three_reduce(*args, **kwargs)

        monkeypatch.setattr(pipeline, "one_plus_three_reduce", counted)
        return calls

    def test_gauss_cloud_skips_the_one_plus_three_step(self, rng, reductions):
        a = rng.normal(size=(2000, 4))
        b = transformed(a, rng)[rng.permutation(2000)]
        v = congruence_test_4d(a, b)
        assert v.congruent and not v.reflected
        mapped = a @ v.rotation.T + v.translation
        assert cKDTree(b).query(mapped)[0].max() <= 1e-6
        mirrored = b @ MIRROR_X1
        assert congruence_test_4d(a, mirrored).stage == "anchor alignment"
        v = congruence_test_4d(a, mirrored,
                               PipelineOptions(allow_reflection=True))
        assert v.congruent and v.reflected
        assert np.linalg.det(v.rotation) == pytest.approx(-1.0)
        assert reductions == []

    def test_singletons_on_a_line_leave_the_one_plus_three_step(
            self, rng, reductions):
        # 3u and the doubled -1.5u are the only one-point classes; they keep
        # the centroid at 0 and span one line, which pins no rotation
        u = rng.normal(size=4)
        u /= np.linalg.norm(u)
        a = np.vstack([gen_regular_polytope("24-cell"), 3 * u, -1.5 * u,
                       -1.5 * u])
        b = transformed(a, rng)[rng.permutation(len(a))]
        assert congruence_test_4d(a, b).congruent
        assert len(reductions) == 1

    def test_flat_cloud_and_its_mirror_image(self, rng, reductions):
        # singletons in the hyperplane x4 = 0 span exactly a 3-space, and
        # the reflection in that hyperplane fixes them, so the mirror image
        # is a proper rotation away
        a = np.column_stack([rng.normal(size=(300, 3)), np.zeros(300)])
        for c in (a, a @ MIRROR_X1):
            b = transformed(c, rng)[rng.permutation(300)]
            v = congruence_test_4d(a, b)
            assert v.congruent and not v.reflected
            assert np.linalg.det(v.rotation) == pytest.approx(1.0)
        assert reductions == []


class TestHelixNoise:
    @staticmethod
    def false_negatives(noise):
        misses = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            k = int(rng.choice([2, 3, 5, 7]))
            ell = int(rng.integers(20, 161))
            while math.gcd(ell, k) != 1:
                ell += 1
            a = gen_orbit_helix(ell, k, float(rng.uniform(0.4, 0.9)))
            b = transformed(a, rng)[rng.permutation(ell)]
            b = b + noise * rng.normal(size=b.shape)
            misses += not congruence_test_4d(a, b).congruent
        return misses

    def test_noise_1e12_never_rejected(self):
        # the 1+3 loop tests one anchor per orbit of the helix's symmetries,
        # so that one test must not fail on noise: the 3D test breaks ties
        # between equally rare shells toward the outermost, best conditioned
        assert self.false_negatives(1e-12) == 0

    def test_noise_3e11_rarely_rejected(self):
        assert self.false_negatives(3e-11) <= 2


class TestStructuredFamilies:
    def test_four_cube_default_path(self, rng):
        assert_roundtrip(gen_regular_polytope("4-cube"), rng)

    def test_four_cube_deep_path_passes_mirror_stage(self, rng):
        v4 = np.array(list(itertools.product([-0.5, 0.5], repeat=4)))
        trace = []
        opts = PipelineOptions(delta0=1.5, few_cap=8)
        b = v4 @ random_rotation(rng).T + 1.0
        v = congruence_test_4d(v4, b, opts, trace_sink=trace)
        assert v.congruent
        assert all(isinstance(e, tuple) and len(e) == 3 for e in trace)
        assert any(stage.startswith("mirror") for stage, _, _ in trace)

    def test_24_cell(self, rng):
        assert_roundtrip(gen_regular_polytope("24-cell"), rng)

    def test_600_cell(self, rng):
        assert_roundtrip(gen_regular_polytope("600-cell"), rng)

    def test_torus_grid(self, rng):
        assert_roundtrip(gen_torus_grid(20, 20, np.sqrt(0.5)), rng)

    @pytest.mark.parametrize("name", ["24-cell", "600-cell"])
    def test_polytope_with_edges_below_the_verify_tolerance(self, name, rng):
        # at 1e-6 the edges are shorter than VERIFY_EPS, so the final check
        # has several candidates per point and needs an exact matching
        assert_roundtrip(gen_regular_polytope(name) * 1e-6, rng, tol=1e-9)

    def test_helix_deep_path(self, rng):
        th = np.arange(40) * TWO_PI / 40
        h = np.c_[np.cos(th), np.sin(th),
                  np.cos(9 * th), np.sin(9 * th)] * [0.8, 0.8, 0.6, 0.6]
        assert_roundtrip(h, rng, PipelineOptions(delta0=1.0, few_cap=3))

    def test_helix_with_cocircular_voronoi_sites(self):
        # qhull splits Voronoi vertices shared by four cocircular torus
        # sites on one side only; the cell shapes must not count them twice
        t = TWO_PI * np.arange(40) / 40
        r1, r2 = 0.8, np.sqrt(1 - 0.8 ** 2)
        a = np.c_[r1 * np.cos(t), r1 * np.sin(t),
                  r2 * np.cos(3 * t), r2 * np.sin(3 * t)]
        rng = np.random.default_rng(3)
        b = a @ random_rotation(rng).T + 1
        b = b[rng.permutation(len(b))]
        v = congruence_test_4d(a, b, PipelineOptions(delta0=1.0))
        assert v.congruent
        assert cKDTree(b).query(a @ v.rotation.T + v.translation)[0].max() < 1e-6

    def test_helix_mirror_cycle_with_isoclinic_spread_step(self, rng):
        # 1203 = 3 * 401 and k = 2: the step to the power 401 is isoclinic,
        # so every triple of points 401 apart is concyclic
        a = gen_orbit_helix(1203, 2, 0.15)
        delta = cKDTree(a).query(a, k=2)[0][:, 1].min()
        b = transformed(a, rng)
        trace = []
        v = congruence_test_4d(a, b[rng.permutation(len(b))],
                               PipelineOptions(delta0=2 * delta),
                               trace_sink=trace)
        assert v.congruent
        assert cKDTree(b).query(a @ v.rotation.T + v.translation)[0].max() < 1e-6
        mirror_keys = [k for stage, k, _ in trace if stage == "mirror"]
        assert ("R5", ("cycles", (1203,))) in mirror_keys[-1][1]

    # the 5-cell's edge is 1.58; delta0 stays below the antipodal distance 2
    @pytest.mark.parametrize("name, delta0", [("5-cell", 1.6), ("16-cell", 1.5),
                                              ("24-cell", 1.5)])
    @pytest.mark.parametrize("mirrored", [False, True])
    def test_polytope_mirror_components_anchor(self, name, delta0, mirrored, rng):
        # full-dimensional mirror components that are no toroidal grid hand
        # their points to the 1+3 reduction instead of raising
        a = gen_regular_polytope(name)
        b = transformed(a, rng)
        if mirrored:
            b = b @ np.diag([-1.0, 1, 1, 1])
        trace = []
        v = congruence_test_4d(a, b[rng.permutation(len(b))],
                               PipelineOptions(delta0=delta0), trace_sink=trace)
        assert v.congruent
        assert cKDTree(b).query(a @ v.rotation.T + v.translation)[0].max() < 1e-6
        mirror_keys = [k for stage, k, _ in trace if stage == "mirror"]
        assert mirror_keys[-1][0] == "Anchors"

    def test_stalled_circle_condensing_takes_two_plus_two(self, rng):
        # the 2T x C8 orbit: its 6 orbit circles condense to one left class
        # of 4 that stays 4 circles, above few_cap = 3
        th = np.arange(8) * np.pi / 4
        c8 = np.c_[np.cos(th), np.sin(th), np.zeros(8), np.zeros(8)]
        p = np.random.default_rng(0).normal(size=4)
        a = quaternion_orbit(binary_tetrahedral(), c8, p / np.linalg.norm(p))
        assert len(a) == 96
        delta = cKDTree(a).query(a, k=2)[0][:, 1].min()
        b = transformed(a, rng)
        trace = []
        v = congruence_test_4d(a, b[rng.permutation(len(b))],
                               PipelineOptions(delta0=1.01 * delta, few_cap=3),
                               trace_sink=trace)
        assert v.congruent
        assert cKDTree(b).query(a @ v.rotation.T + v.translation)[0].max() < 1e-6
        marking = [k for stage, k, _ in trace if stage == "marking"][-1]
        assert marking[0] == "FewCircles" and marking[1][-1] == ("M3", 4)

    def test_mirror_structure_verdict(self, rng):
        # two octagons in orthogonal planes and one 16-gon: both graphs are
        # 16 vertices of degree 2 with mirror-symmetric edge figures, and
        # only their components differ
        t8, t16 = np.arange(8) * TWO_PI / 8, np.arange(16) * TWO_PI / 16
        z = np.zeros(8)
        a = np.r_[np.c_[np.cos(t8), np.sin(t8), z, z],
                  np.c_[z, z, np.cos(t8), np.sin(t8)]]
        b = np.c_[np.cos(t16), np.sin(t16), np.zeros((16, 2))]
        trace = []
        v = congruence_test_4d(a, b @ random_rotation(rng).T,
                               PipelineOptions(delta0=1.0), trace_sink=trace)
        assert not v.congruent and v.stage == "mirror structure"
        stages = dict((s, (ka, kb)) for s, ka, kb in trace)
        assert stages["sphere"][0] == stages["sphere"][1]
        ra, rb = (dict(k[1])["R1"] for k in stages["mirror"])
        assert (ra, rb) == ((2, (8, 8)), (1, (16,)))

    def test_orbit_structure_verdict(self, rng):
        # a 20-point helix against two 10-point orbits of one rotation: the
        # same closest-pair graphs and mark figures, one orbit cycle
        # against two
        a = gen_orbit_helix(20, 3, 0.8)
        o = gen_orbit_helix(10, 3, 0.8)
        b = np.r_[o, o @ block_rotation(0.0, math.pi).T]
        trace = []
        v = congruence_test_4d(a, b @ random_rotation(rng).T,
                               PipelineOptions(delta0=1.0, few_cap=8),
                               trace_sink=trace)
        assert not v.congruent and v.stage == "orbit structure"
        stages = dict((s, (ka, kb)) for s, ka, kb in trace)
        assert stages["sphere"][0] == stages["sphere"][1]
        assert trace[-1] == ("orbit", (("O", (1, (20,))),),
                             (("O", (2, (10, 10))),))

    def test_circle_count_verdict(self, rng):
        # two 41-point helices of one rotation, about 1 apart against a
        # step of 0.22, share their invariant circle; a tilt of the second
        # keeps every key up to the orbit cycles but gives it its own circle
        o = gen_orbit_helix(41, 2, 0.8)
        oh = o @ block_rotation(0.0, math.pi).T
        c, s = math.cos(0.05), math.sin(0.05)
        tilt = np.array([[c, 0, -s, 0], [0, 1, 0, 0], [s, 0, c, 0],
                         [0, 0, 0, 1]])
        trace = []
        v = congruence_test_4d(np.r_[o, oh],
                               np.r_[o, oh @ tilt.T] @ random_rotation(rng).T,
                               PipelineOptions(delta0=1.0), trace_sink=trace)
        assert not v.congruent and v.stage == "circle count"
        assert trace[-2] == ("orbit", (("O", (2, (41, 41))),),
                             (("O", (2, (41, 41))),))
        assert trace[-1] == ("circles", 1, 2)

    def test_circle_structure_verdict(self, rng):
        # three 12-gons on great circles at least 40 degrees apart, so only
        # polygon edges are closest pairs: A's circles are fibers of one
        # Hopf bundle and condense (M11), B's are not all parallel and mark
        # (M7)
        t = np.arange(12) * TWO_PI / 12

        def polygon(u, v):
            return np.cos(t)[:, None] * u + np.sin(t)[:, None] * v

        a = hopf_12gons()
        e = np.eye(4)
        p, q = math.radians(50), math.radians(40)
        b = np.concatenate([
            polygon(e[0], e[1]), polygon(e[2], e[3]),
            polygon(math.cos(p) * e[0] + math.sin(p) * e[2],
                    math.cos(q) * e[1] + math.sin(q) * e[3])])
        trace = []
        v = congruence_test_4d(a, b @ random_rotation(rng).T,
                               PipelineOptions(delta0=1.0, few_cap=2),
                               trace_sink=trace)
        assert not v.congruent and v.stage == "circle structure"
        assert trace[-2] == ("circles", 3, 3)
        # both sides stop at the first differing key, M5
        assert trace[-1] == (
            "marking",
            (None, (("M2", ((1, 3),)), ("M4", "None"), ("M5", 3))),
            (None, (("M2", ((1, 3),)), ("M4", "None"), ("M5", 2))))

    def test_hopf_bundle_samples(self, rng):
        pts = [fiber_polygon(np.array(tau), 12)
               for tau in ([1.0, 0, 0], [0.0, -1, 0], [0.0, -0.6, 0.8])]
        assert_roundtrip(np.concatenate(pts), rng)


class TestReflection:
    def test_mirror_pair(self, rng):
        a = rng.normal(size=(64, 4))
        bm = a @ np.diag([-1.0, 1, 1, 1]) @ random_rotation(rng).T + 0.5
        v = congruence_test_4d(a, bm)
        assert not v.congruent
        v = congruence_test_4d(a, bm, PipelineOptions(allow_reflection=True))
        assert v.congruent and v.reflected
        assert np.linalg.det(v.rotation) == pytest.approx(-1.0)
        mapped = a @ v.rotation.T + v.translation
        assert cKDTree(bm).query(mapped)[0].max() < 1e-6

    def test_direct_pair_not_marked_reflected(self, rng):
        a = rng.normal(size=(32, 4))
        v = congruence_test_4d(a, transformed(a, rng),
                               PipelineOptions(allow_reflection=True))
        assert v.congruent and not v.reflected
        assert np.linalg.det(v.rotation) == pytest.approx(1.0)


class TestOriginVerdicts:
    def test_origin_class(self):
        # both centroids are 0; A has a point there and B none
        e = np.eye(4)
        a = np.array([np.zeros(4), e[0], -e[0]])
        b = np.array([e[0], [-0.5, 0.5, 0, 0], [-0.5, -0.5, 0, 0]])
        v = congruence_test_4d(a, b)
        assert not v.congruent and v.stage == "origin class"
        assert not oracle_congruent(a, b).congruent

    def test_coincident_above_half_the_verify_tolerance(self):
        # eps_eq above VERIFY_EPS / 2 puts every point at the origin while
        # the identity does not verify; the oracle finds the rotation, so
        # this verdict is a false negative
        e = np.eye(4)
        a = np.array([0.9 * e[0], -0.9 * e[0]])
        b = np.array([0.9 * e[1], -0.9 * e[1]])
        v = congruence_test_4d(a, b, PipelineOptions(eps_eq=1.0))
        assert not v.congruent and v.stage == "coincident"
        assert oracle_congruent(a, b).congruent


class TestMultiplicities:
    def test_duplicates_allowed(self, rng):
        a = rng.normal(size=(10, 4))
        assert_roundtrip(np.r_[a, a[:3]], rng)

    def test_multiplicity_pattern_mismatch(self, rng):
        a = rng.normal(size=(10, 4))
        aa = np.r_[a, a[:3]]
        r = random_rotation(rng)
        b = np.r_[a @ r.T, a[:2] @ r.T, a[3:4] @ r.T]
        v = congruence_test_4d(aa, b)
        assert not v.congruent

    def test_merged_points_checked_against_the_input(self):
        # eps_eq = 1 merges each set into one point at its centroid, where
        # the identity maps one mean onto the other
        rng = np.random.default_rng(5)
        a, b = 0.01 * rng.normal(size=(6, 4)), 0.01 * rng.normal(size=(6, 4))
        v = congruence_test_4d(a, b, PipelineOptions(eps_eq=1.0))
        assert not v.congruent and v.stage == "merged points"
        assert not oracle_congruent(a, b).congruent

    @staticmethod
    def merge_reference(points, eps, labels):
        """merge_points by a loop over the classes of merge_close, whether
        or not anything merges."""
        groups = members_by_id(merge_close(points, eps, labels))
        return (np.array([points[m].mean(axis=0) for m in groups]),
                np.array([len(m) for m in groups], dtype=np.intp),
                np.array([m[0] for m in groups], dtype=np.intp))

    @pytest.mark.parametrize("copies", [0, 3])
    def test_merge_points_equals_loop_reference(self, rng, copies):
        a, lab = rng.normal(size=(20, 4)), rng.integers(2, size=20)
        pts, labels = np.r_[a, a[:copies]], np.r_[lab, lab[:copies]]
        if copies:
            # the last copy has another label, so it stays apart
            labels[-1] = 1 - labels[-1]
        got = merge_points(pts, 1e-9, labels)
        want = self.merge_reference(pts, 1e-9, labels)
        assert len(got[0]) == len(pts) - max(copies - 1, 0)
        assert (got[0] is pts) == (copies == 0)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_shell_directions_merged_before_pruning(self, rng):
        # two directions 5e-10 apart lie 5e-7 apart at radius 1000, so the
        # points stay distinct while their directions merge on the sphere
        x = rng.normal(size=(40, 4))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        t = rng.normal(size=4)
        t -= (t @ x[0]) * x[0]
        y = x[0] + 5e-10 * t / np.linalg.norm(t)
        x = np.r_[x, [y / np.linalg.norm(y)]]
        a = 1000 * np.r_[x, -x]
        assert congruence_test_4d(a, a @ random_rotation(rng).T).congruent

    def test_large_tolerance_raises_nothing(self):
        # at eps_eq = 1 distinct points of one radius class come within
        # eps_eq of each other once projected onto the unit sphere
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = rng.integers(2, 8)
            a, b = rng.normal(size=(n, 4)), rng.normal(size=(n, 4))
            v = congruence_test_4d(a, b, PipelineOptions(eps_eq=1.0))
            assert not v.congruent


class TestForcedPairing:
    # the final check pairs the points in order of their norms, which is
    # the right pairing for distinct radii, and builds no k-d tree for it
    def test_gaussian_cloud_needs_no_search(self, rng, geom_trees):
        assert_roundtrip(rng.normal(size=(300, 4)), rng)
        assert geom_trees == []

    def test_helix_shares_tokens(self, rng, geom_trees):
        assert_roundtrip(gen_orbit_helix(50, 3, 0.8), rng)
        assert (50, 4) in geom_trees


class TestLabels:
    def test_labels_pin_matching(self, rng):
        a = rng.normal(size=(12, 4))
        r = random_rotation(rng)
        labs = [i % 4 for i in range(12)]
        v = congruence_test_4d(a, a @ r.T, labels_a=labs, labels_b=labs)
        assert v.congruent

    def test_label_swap_rejected(self, rng):
        # two points with swapped labels: positions match, labels cannot
        a = rng.normal(size=(8, 4))
        labs = list("abcdefgh")
        swapped = list(labs)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        v = congruence_test_4d(a, a.copy(), labels_a=labs, labels_b=swapped)
        assert not v.congruent

    def test_label_count_mismatch_raises(self, rng):
        a = rng.normal(size=(5, 4))
        with pytest.raises(ValueError):
            congruence_test_4d(a, a, labels_a=["x"] * 4, labels_b=["x"] * 5)

    def test_one_sided_labels_raise(self, rng):
        a = rng.normal(size=(5, 4))
        with pytest.raises(ValueError):
            congruence_test_4d(a, a, labels_a=["x"] * 5)

    def test_labeled_dedupe_keeps_label_distinction(self, rng):
        # coincident points with different labels must not merge
        a = np.zeros((2, 4))
        b = np.zeros((2, 4))
        v = congruence_test_4d(a, b, labels_a=["x", "y"],
                               labels_b=["x", "y"])
        assert v.congruent
        v = congruence_test_4d(a, b, labels_a=["x", "y"],
                               labels_b=["x", "x"])
        assert not v.congruent


class TestTrace:
    def test_lockstep_keys_equal_for_congruent_pair(self, rng):
        a = gen_torus_grid(6, 5, 0.7)
        trace = []
        v = congruence_test_4d(a, transformed(a, rng), trace_sink=trace)
        assert v.congruent
        assert trace
        assert all(isinstance(e, tuple) and len(e) == 3 for e in trace)
        for stage, key_a, key_b in trace:
            assert key_a == key_b

    def test_negative_trace_ends_with_mismatch(self, rng):
        a = rng.normal(size=(40, 4))
        b = a @ random_rotation(rng).T
        b[5] += 0.01
        trace = []
        v = congruence_test_4d(a, b, trace_sink=trace)
        assert not v.congruent
        assert all(isinstance(e, tuple) and len(e) == 3 for e in trace)
        stage, key_a, key_b = trace[-1]
        assert key_a != key_b
        assert v.stage


class TestLockstep:
    @staticmethod
    def steps(keys, exit_, advanced):
        """A stage-key generator that counts the keys it has yielded."""
        for key in keys:
            advanced.append(key)
            yield key
        return exit_

    def run(self, keys_a, keys_b):
        adv_a, adv_b = [], []
        out = _lockstep(self.steps(keys_a, "A", adv_a),
                        self.steps(keys_b, "B", adv_b))
        return out, len(adv_a), len(adv_b)

    def test_equal_streams_return_both_exits(self):
        keys = [("C1", 1), ("C2", 2), ("C3", 3)]
        assert self.run(keys, list(keys)) == (("A", "B", keys, keys), 3, 3)

    def test_first_difference_stops_both_sides(self):
        a = [("C1", 1), ("C2", 2), ("C3", 3), ("C4", 4), ("C5", 5)]
        b = a[:2] + [("C3", 9)] + a[3:]
        assert self.run(a, b) == ((None, None, a[:3], b[:3]), 3, 3)

    def test_a_side_that_ends_early_diverges(self):
        a = [("C1", 1), ("C2", 2)]
        b = a + [("C3", 3), ("C4", 4)]
        assert self.run(a, b) == ((None, None, a, b[:3]), 2, 3)
        assert self.run(b, a) == ((None, None, b[:3], a), 3, 2)

    def test_near_miss_circle_stops_at_the_arc_count(self, rng, monkeypatch):
        # the dense benchmark near-miss: two antipodal points of a great
        # circle slid by 0.3 spacing make a closest-pair graph of 2 edges
        n = 600
        th = 2 * np.pi * np.arange(n) / n
        a = np.c_[np.cos(th), np.sin(th), np.zeros(n), np.zeros(n)]
        near = a.copy()
        near[0, :2] = np.cos(0.3 * th[1]), np.sin(0.3 * th[1])
        near[n // 2, :2] = -near[0, :2]
        b = transformed(near, rng)[rng.permutation(n)]
        calls = []
        real = iterprune.edge_figure_codes
        monkeypatch.setattr(iterprune, "edge_figure_codes",
                            lambda *args: calls.append(1) or real(*args))
        sink = []
        v = congruence_test_4d(a, b, PipelineOptions(delta0=0.07),
                               trace_sink=sink)
        assert v.stage == "sphere structure"
        stage, (exit_a, keys_a), (exit_b, keys_b) = sink[-1]
        assert stage == "sphere" and exit_a is exit_b is None
        assert keys_a == (("C1", (n, "dense")), ("C2", 2 * n))
        assert keys_b == (("C1", (n, "dense")), ("C2", 4))
        assert calls == []

    def test_mirror_stops_at_the_first_differing_r_key(self, rng):
        # a square on a great circle against a regular tetrahedron on a
        # great 2-sphere: one centered component of 4 points each, of rank
        # 2 and 3, so the two streams first differ at R-rank
        square = np.concatenate([np.eye(4)[:2], -np.eye(4)[:2]])
        tetra = np.array([[1.0, 1, 1, 0], [1, -1, -1, 0], [-1, 1, -1, 0],
                          [-1, -1, 1, 0]]) / math.sqrt(3)
        cycle = [(0, 1), (1, 2), (2, 3), (0, 3)]
        complete = itertools.combinations(range(4), 2)
        sides = [(pts @ random_rotation(rng).T,
                  iterprune.DirectedGraph(4, arc_array(edges)))
                 for pts, edges in ((square, cycle), (tetra, complete))]
        steps = [mirror_reduce(pts, g) for pts, g in sides]
        ex_a, ex_b, keys_a, keys_b = _lockstep(*steps)
        head = [("R1", (1, (4,))), ("R2", "centered")]
        assert ex_a is ex_b is None
        assert keys_a == head + [("R-rank", 2)]
        assert keys_b == head + [("R-rank", 3)]
        # each side resumes right after the differing key: its R3 or R4
        # key is still to come
        for s, keys, (pts, g) in zip(steps, (keys_a, keys_b), sides):
            rest = iterprune.run_steps(s)[1]
            assert len(rest) == 1
            assert keys + rest == \
                iterprune.run_steps(mirror_reduce(pts, g))[1]


class TestUntracedDecisions:
    """A trace sink only records keys: the checks compare count vectors,
    and the histograms are named only for the trace."""

    @staticmethod
    def decide_both(a, b, opts=None, **labels):
        """The traced verdict, after checking that the untraced one has
        the same outcome, stage and rotation."""
        sink: list = []
        traced = congruence_test_4d(a, b, opts, sink, **labels)
        plain = congruence_test_4d(a, b, opts, None, **labels)
        assert sink
        assert (plain.congruent, plain.stage, plain.reflected) == \
            (traced.congruent, traced.stage, traced.reflected)
        if traced.congruent:
            assert np.array_equal(plain.rotation, traced.rotation)
            assert np.array_equal(plain.translation, traced.translation)
        return traced

    @pytest.mark.parametrize("kind", ["congruent", "mirror", "near-miss"])
    def test_gaussian_clouds(self, rng, kind):
        a = rng.normal(size=(2000, 4))
        src = a @ np.diag([-1.0, 1.0, 1.0, 1.0]) if kind == "mirror" else a.copy()
        if kind == "near-miss":
            d = rng.normal(size=4)
            src[rng.integers(len(a))] += 1e-3 * d / np.linalg.norm(d)
        b = transformed(src, rng)[rng.permutation(len(a))]
        v = self.decide_both(a, b)
        assert v.congruent == (kind == "congruent")
        if kind == "near-miss":
            assert v.stage == "radius class"

    def test_mirror_with_reflection_allowed(self, rng):
        a = rng.normal(size=(300, 4))
        b = transformed(a @ np.diag([-1.0, 1.0, 1.0, 1.0]), rng)
        v = self.decide_both(a, b, PipelineOptions(allow_reflection=True))
        assert v.congruent and v.reflected

    def test_multiplicity_histograms_differ(self, rng):
        a = rng.normal(size=(40, 4))
        r = random_rotation(rng)
        # three doubled points against a tripled and a doubled one
        v = self.decide_both(np.r_[a, a[:3]], np.r_[a, a[:1], a[:2]] @ r.T)
        assert not v.congruent and v.stage == "multiplicity"

    def test_label_histograms_differ(self, rng):
        a = rng.normal(size=(40, 4))
        labs = [i % 3 for i in range(40)]
        other = list(labs)
        other[0] = 2
        v = self.decide_both(a, transformed(a, rng), labels_a=labs,
                             labels_b=other)
        assert not v.congruent and v.stage == "multiplicity"

    def test_labels_on_other_radii(self, rng):
        # equal label histograms, but two labels trade radius shells
        a = rng.normal(size=(40, 4))
        labs = [i % 3 for i in range(40)]
        other = list(labs)
        other[0], other[1] = other[1], other[0]
        v = self.decide_both(a, transformed(a, rng), labels_a=labs,
                             labels_b=other)
        assert not v.congruent and v.stage == "radius class"

    def test_labeled_congruent(self, rng):
        a = rng.normal(size=(60, 4))
        labs = [f"l{i % 4}" for i in range(60)]
        perm = rng.permutation(60)
        v = self.decide_both(a, transformed(a, rng)[perm], labels_a=labs,
                             labels_b=[labs[i] for i in perm])
        assert v.congruent


class TestStalls:
    """A condensing step that stalls hands its shell to the 1+3 step, or
    to the 2+2 step where marking finds no pair to mark."""

    @staticmethod
    def maps(v, a, b):
        mapped = a @ v.rotation.T + v.translation
        return cKDTree(b).query(mapped)[0].max() <= 1e-6

    def test_marking_without_cross_pairs_keeps_few_circles(self):
        # M11 condenses the three fibers to two that are parallel both
        # ways; their class has no third circle to pair across
        a = hopf_12gons()
        b = a @ random_rotation(np.random.default_rng(0)).T
        opts = PipelineOptions(delta0=1.0, few_cap=1)
        trace = []
        v = congruence_test_4d(a, b, opts, trace_sink=trace)
        assert v.congruent and self.maps(v, a, b)
        (_, mk_a, mk_b), = [e for e in trace if e[0] == "marking"]
        for kind, keys in (mk_a, mk_b):
            assert kind == "FewCircles"
            assert keys[-4:] == (("M4", "right"), ("M5", 1),
                                 ("M6", (1, 1, 0)), ("M3", 2))
        v = congruence_test_4d(a, a @ MIRROR_X1, opts)
        assert not v.congruent and v.stage == "circle structure"
        opts.allow_reflection = True
        v = congruence_test_4d(a, a @ MIRROR_X1, opts)
        assert v.congruent and v.reflected and self.maps(v, a, a @ MIRROR_X1)

    def test_arc_without_mark_position(self):
        # one helix point moved by half the default eps: its arcs lose the
        # successor angle that the other arcs share
        stalls = 0
        for s in range(12):
            a = gen_orbit_helix(1000, 3, 0.8)
            d = np.random.default_rng(s).normal(size=4)
            d -= (d @ a[0]) * a[0]
            a[0] += 5e-10 * d / np.linalg.norm(d)
            b = a @ random_rotation(np.random.default_rng(100 + s)).T
            trace = []
            v = congruence_test_4d(a, b, PipelineOptions(delta0=0.05),
                                   trace_sink=trace)
            assert v.congruent and self.maps(v, a, b)
            stalls += ("stalled", "an arc has no mark position",
                       "an arc has no mark position") in trace
        assert stalls >= 1

    def test_arc_endpoints_on_one_ray(self):
        # two shell directions 1e-10 apart, above eps_eq: the arc between
        # them has no two-vector frame
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 4))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        d = rng.normal(size=4)
        d -= (d @ x[0]) * x[0]
        a = np.vstack([x, x[0] + 1e-10 * d / np.linalg.norm(d)])
        a = np.vstack([a, -a])
        r = random_rotation(np.random.default_rng(1))
        stall = ("stalled",) + ("arc endpoints collapse onto one ray",) * 2
        opts = PipelineOptions(eps_eq=1e-12)
        trace = []
        v = congruence_test_4d(a, a @ r.T, opts, trace_sink=trace)
        assert v.congruent and self.maps(v, a, a @ r.T)
        assert stall in trace
        b = a @ MIRROR_X1 @ r.T
        trace = []
        v = congruence_test_4d(a, b, opts, trace_sink=trace)
        assert not v.congruent and stall in trace
        opts.allow_reflection = True
        v = congruence_test_4d(a, b, opts)
        assert v.congruent and v.reflected and self.maps(v, a, b)
