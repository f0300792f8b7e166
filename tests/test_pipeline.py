"""End-to-end congruence pipeline behavior."""

import itertools

import numpy as np
import pytest
from scipy.spatial import cKDTree

from hypercongruence.condense import TWO_PI
from hypercongruence.geom import frame, hopf_fiber
from hypercongruence.harness import (
    gen_regular_polytope,
    gen_torus_grid,
    random_rotation,
)
from hypercongruence.pipeline import PipelineOptions, congruence_test_4d


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

    @pytest.mark.parametrize("name, delta0", [("5-cell", 2.0), ("16-cell", 1.5),
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

    def test_hopf_fiber_samples(self, rng):
        f0 = frame(np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]))
        pts = []
        for s in ([0.0, 0, 1], [1.0, 0, 0], [0.6, 0.8, 0]):
            fib = hopf_fiber(f0, np.array(s), "right")
            th = np.arange(12) * TWO_PI / 12
            pts.append(np.cos(th)[:, None] * fib.basis[0]
                       + np.sin(th)[:, None] * fib.basis[1])
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
