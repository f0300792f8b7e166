"""Translation congruence on the 2-torus and the 2+2 block reduction."""

import math

import numpy as np
import pytest
from scipy.spatial import Voronoi, cKDTree

from hypercongruence.condense import (TWO_PI, circular_cluster, joint_ranks,
                                      prune_by_key, tolerance_cluster,
                                      wrap_angle)
from hypercongruence.geom import (
    PointSet4,
    block_rotation,
    match_multisets,
)
from hypercongruence.harness import (gen_orbit_helix, gen_torus_grid,
                                     oracle_congruent, random_rotation)
from hypercongruence.torus import (
    SWAP_PLANES,
    _block_match,
    _cell_shapes,
    _lattice_copies,
    _period_lattice,
    canonical_set_torus,
    torus_translation_congruent,
    two_plus_two_reduce,
)

E12 = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])


def wrap_dist(a, b, period=TWO_PI):
    d = np.mod(np.asarray(a) - np.asarray(b), period)
    return np.minimum(d, period - d)


def brute_symmetries(pos, labels, eps=1e-7):
    """All torus translations mapping the labeled set onto itself."""
    pos = np.mod(np.asarray(pos, float), TWO_PI)
    out = []
    base = sorted(range(len(pos)), key=lambda i: str(labels[i]))
    i0 = base[0]
    for j in range(len(pos)):
        if labels[j] != labels[i0]:
            continue
        t = np.mod(pos[j] - pos[i0], TWO_PI)
        shifted = np.mod(pos + t, TWO_PI)
        used = [False] * len(pos)
        ok = True
        for k in range(len(pos)):
            hit = -1
            for m in range(len(pos)):
                if used[m] or labels[m] != labels[k]:
                    continue
                if np.all(wrap_dist(shifted[k], pos[m]) < eps):
                    hit = m
                    break
            if hit < 0:
                ok = False
                break
            used[hit] = True
        if ok:
            out.append(tuple(np.round(t, 6)))
    return set(out)


def periodic_voronoi(sites: np.ndarray) -> Voronoi:
    """Planar Voronoi diagram whose cells of the first len(sites) input
    points are the cells of the sites on the flat torus [0, 2pi)^2.

    Every point of the torus lies within the covering radius R of its
    nearest site, so every cell lies within R of its site, and a site
    farther than 2R away cannot cut it.  R is bounded by the largest
    nearest-site distance over a grid of about len(sites) probes of
    spacing h, plus h / sqrt(2).  The sites and those of their copies in
    the eight neighbouring squares that lie within 2R of the fundamental
    square (coordinate-wise) then form one qhull input; when 2R reaches
    2pi, all nine copies do.
    """
    g = math.isqrt(len(sites) - 1) + 1
    h = TWO_PI / g
    probes = np.arange(g) * h
    d, _ = cKDTree(sites, boxsize=TWO_PI).query(
        np.c_[np.repeat(probes, g), np.tile(probes, g)])
    reach = 2.0 * (d.max() + h / math.sqrt(2.0))
    shifts = TWO_PI * np.array([(0, 0), (-1, -1), (-1, 0), (-1, 1), (0, -1),
                                (0, 1), (1, -1), (1, 0), (1, 1)])
    copies = (sites + shifts[:, None]).reshape(-1, 2)
    if reach < TWO_PI:
        copies = copies[np.all(np.abs(copies - math.pi) <= math.pi + reach,
                               axis=1)]
    return Voronoi(copies, qhull_options="Qbb Qc Qz Q12")


def nine_copy_voronoi(sites):
    """The planar Voronoi of the sites and all eight of their neighbouring
    copies, the sites first."""
    shifts = [(0, 0)] + [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)
                         if (i, j) != (0, 0)]
    return Voronoi(np.concatenate([sites + TWO_PI * np.array(s) for s in shifts]),
                   qhull_options="Qbb Qc Qz Q12")


def helix_angles(ell, k, r1):
    h = gen_orbit_helix(ell, k, r1)
    return wrap_angle(np.c_[np.arctan2(h[:, 1], h[:, 0]),
                            np.arctan2(h[:, 3], h[:, 2])])


def cell_shapes(vor, sites):
    """The shape of every site's cell, from _cell_shapes' ranks."""
    ranks, shapes = _cell_shapes(vor, sites, 1e-7)
    return [shapes[r] for r in ranks.tolist()]


def reference_cell_shapes(vor, sites, eps=1e-7):
    """_cell_shapes one cell at a time: vertex pairs sorted by angle, the
    copies of a split vertex dropped, then the least of all rotations."""
    rels = [vor.vertices[vor.regions[vor.point_region[i]]] - sites[i]
            for i in range(len(sites))]
    flat = np.concatenate(rels)
    xids = tolerance_cluster(flat[:, 0], eps).ids.tolist()
    yids = tolerance_cluster(flat[:, 1], eps).ids.tolist()
    shapes, at = [], 0
    for rel in rels:
        pairs = list(zip(xids[at:at + len(rel)], yids[at:at + len(rel)]))
        at += len(rel)
        ccw = [pairs[j] for j in np.argsort(np.arctan2(rel[:, 1], rel[:, 0]),
                                            kind="stable")]
        ccw = [t for i, t in enumerate(ccw) if t != ccw[i - 1]]
        shapes.append(min(tuple(ccw[k:] + ccw[:k]) for k in range(len(ccw))))
    return shapes


def reference_canonical_set_torus(positions, labels, eps=1e-7):
    """canonical_set_torus on the full torus, without periods: every site
    is its own representative, cells come from :func:`periodic_voronoi`
    and cell contents from a periodic k-d tree, and every T5 word is a
    sorted tuple of per-site (x id, y id, label) tuples."""
    pos = wrap_angle(np.asarray(positions, dtype=float).reshape(-1, 2))
    keys, orig, cur_pos, cur_labs = [], np.arange(len(pos)), pos, labels
    while True:
        lab_rank = joint_ranks(cur_labs)[1]
        pr = prune_by_key(lab_rank)
        keys.append(("T1", pr.histogram))
        cand = np.array(pr.indices, dtype=int)
        if len(cand) == 1:
            keys.append(("T", 1))
            return orig[cand], keys
        while True:
            sites = cur_pos[cand]
            ranks, shapes = _cell_shapes(periodic_voronoi(sites), sites, eps)
            spr = prune_by_key(ranks)
            keys.append(("T3", tuple((shapes[r], c) for r, c in spr.histogram)))
            if not spr.progressed:
                break
            cand = cand[np.array(spr.indices, dtype=int)]
            if len(cand) == 1:
                keys.append(("T", 1))
                return orig[cand], keys
        sites = cur_pos[cand]
        tree = cKDTree(sites, boxsize=TWO_PI)
        d, _ = tree.query(cur_pos)
        balls = tree.query_ball_point(cur_pos, d + eps)
        words = [[] for _ in sites]
        for p, ball in enumerate(balls):
            for k in set(ball):
                w = cur_pos[p] - sites[k]
                words[k].append((w, int(lab_rank[p])))
        flat = np.array([w for word in words for w, _ in word])
        xids = circular_cluster(flat[:, 0], eps).ids.tolist()
        yids = circular_cluster(flat[:, 1], eps).ids.tolist()
        it = iter(zip(xids, yids))
        words = [tuple(sorted(next(it) + (lab,) for _, lab in word))
                 for word in words]
        ranks = joint_ranks(words)[1]
        keys.append(("T5", prune_by_key(ranks).histogram))
        if ranks.max() == 0:
            keys.append(("T", len(cand)))
            return orig[cand], keys
        orig = orig[cand]
        cur_pos, cur_labs = cur_pos[cand], ranks


def grid_coset(p, q, offset=(0.0, 0.0)):
    """The p x q grid on the torus, shifted by offset, row by row."""
    i, j = np.divmod(np.arange(p * q), q)
    return wrap_angle(np.c_[i * TWO_PI / p, j * TWO_PI / q] + offset), i, j


def placed_grid(p, q, rng):
    """Torus angles of gen_torus_grid(p, q) turned by a random block
    rotation, in random order, as the 2+2 reduction reads them."""
    g = gen_torus_grid(p, q, 0.6) @ block_rotation(*rng.uniform(0, TWO_PI, 2)).T
    g = g[rng.permutation(len(g))]
    return wrap_angle(np.c_[np.arctan2(g[:, 1], g[:, 0]),
                            np.arctan2(g[:, 3], g[:, 2])])


def seam_cases(rng):
    """A 3 x 3 grid and a cloud with values that round onto either end of
    [0, 2pi)."""
    top = np.nextafter(TWO_PI, 0.0)
    cases = []
    for pos in (np.array([[i * TWO_PI / 3, j * TWO_PI / 3]
                          for i in range(3) for j in range(3)]),
                rng.uniform(0, TWO_PI, size=(12, 2))):
        pos[0] = -1e-17, -0.0
        pos[1, 0] = top
        pos[2, 1] = -1e-17
        cases.append(pos)
    return cases


def lattice_index(pos, labs, eps=1e-7):
    """[Lambda' : 2pi Z^2] of the period lattice that _period_lattice
    proves, checked against its orbit sizes."""
    q, basis, orbit = _period_lattice(wrap_angle(pos), joint_ranks(labs)[1], eps)
    (a, b), (c, d) = basis.tolist()
    index = q * q // abs(a * d - b * c)
    assert (np.bincount(orbit) == index).all()
    return index


def lattice_basis(pos, labs):
    """The float reduced basis of the period lattice of the set."""
    q, basis, _ = _period_lattice(wrap_angle(pos), joint_ranks(labs)[1], 1e-7)
    return basis * (TWO_PI / q)


class TestPeriodicVoronoi:
    @pytest.mark.parametrize("case", ["cloud", "grid", "helix"])
    def test_clipped_cells_equal_nine_copy_cells(self, rng, case):
        sites = {"cloud": lambda: rng.uniform(0, TWO_PI, size=(300, 2)),
                 "grid": lambda: np.array([[i * TWO_PI / 12, j * TWO_PI / 13]
                                           for i in range(12) for j in range(13)]),
                 "helix": lambda: helix_angles(2000, 3, 0.8)}[case]()
        vor = periodic_voronoi(sites)
        assert len(vor.points) < 9 * len(sites)
        assert cell_shapes(vor, sites) == \
            cell_shapes(nine_copy_voronoi(sites), sites)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_few_sites_take_all_nine_copies(self, rng, m):
        sites = rng.uniform(0, TWO_PI, size=(m, 2))
        sites[0] = 0.0
        vor = periodic_voronoi(sites)
        assert len(vor.points) == 9 * m
        assert cell_shapes(vor, sites) == \
            cell_shapes(nine_copy_voronoi(sites), sites)

    @pytest.mark.parametrize("case", ["cloud", "grid"])
    def test_shapes_equal_per_cell_reference(self, rng, case):
        # the grid's cells share vertices of four cocircular sites, which
        # qhull may split in two; ranks order as the shapes do
        sites = {"cloud": lambda: rng.uniform(0, TWO_PI, size=(200, 2)),
                 "grid": lambda: np.array([[i * TWO_PI / 9, j * TWO_PI / 10]
                                           for i in range(9) for j in range(10)]),
                 }[case]()
        vor = periodic_voronoi(sites)
        ref = reference_cell_shapes(vor, sites)
        ranks, shapes = _cell_shapes(vor, sites, 1e-7)
        assert [shapes[r] for r in ranks.tolist()] == ref
        assert shapes == sorted(set(ref))


class TestCanonicalSet:
    def test_unique_labels_singleton(self, rng):
        pos = rng.uniform(0, TWO_PI, size=(10, 2))
        idx, keys = canonical_set_torus(pos, list(range(10)))
        assert len(idx) == 1
        assert keys

    def test_single_point(self):
        idx, _ = canonical_set_torus(np.array([[1.0, 2.0]]), ["a"])
        assert list(idx) == [0]

    def test_equivariance(self, rng):
        pos = rng.uniform(0, TWO_PI, size=(24, 2))
        pos_b = np.mod(pos + rng.uniform(0, TWO_PI, size=2), TWO_PI)
        ia, ka = canonical_set_torus(pos, [0] * 24)
        ib, kb = canonical_set_torus(pos_b, [0] * 24)
        assert ka == kb
        assert sorted(ia.tolist()) == sorted(ib.tolist())

    def test_full_lattice_kept_whole(self):
        # a grid is its own translation orbit, nothing can be pruned
        g = np.array([[i * TWO_PI / 4, j * TWO_PI / 4]
                      for i in range(4) for j in range(4)])
        idx, _ = canonical_set_torus(g, [0] * 16)
        assert len(idx) == 16

    def test_canonical_orbit_size_matches_symmetry_group(self, rng):
        cases = []
        g = np.array([[i * TWO_PI / 3, j * TWO_PI / 3]
                      for i in range(3) for j in range(3)])
        cases.append((g, [0] * 9))
        # sublattice labels cut the symmetry down to the coarse lattice
        cases.append((g, [i // 3 for i in range(9)]))
        cloud = rng.uniform(0, TWO_PI, size=(7, 2))
        cases.append((cloud, [0] * 7))
        # lattice + generic offset cloud: only the identity survives
        mix = np.vstack([g, cloud])
        cases.append((mix, [0] * 16))
        for pos, labs in cases:
            idx, _ = canonical_set_torus(pos, labs)
            syms = brute_symmetries(pos, labs)
            assert len(idx) == len(syms)

    def test_positions_at_the_seam(self, rng):
        # the periodic tree needs [0, 2pi); values that round onto either
        # end of it must give the keys of their wrapped values
        for pos in seam_cases(rng):
            labs = [0] * len(pos)
            ia, ka = canonical_set_torus(pos, labs)
            ib, kb = canonical_set_torus(wrap_angle(pos), labs)
            assert ka == kb
            assert ia.tolist() == ib.tolist()

    def test_canonical_set_is_one_orbit(self, rng):
        # two lattice orbits with different labels: the symmetry group is
        # the full lattice, and the canonical set is one of its orbits
        g = np.array([[i * TWO_PI / 3, j * TWO_PI / 3]
                      for i in range(3) for j in range(3)])
        jitter = rng.uniform(0, TWO_PI, size=2)
        other = rng.uniform(0, TWO_PI, size=2)
        pos = np.vstack([np.mod(g + jitter, TWO_PI),
                         np.mod(g + other, TWO_PI)])
        labs = ["g"] * 9 + ["c"] * 9
        idx, _ = canonical_set_torus(pos, labs)
        syms = brute_symmetries(pos, labs)
        assert len(idx) == len(syms) == 9
        # differences between canonical members enumerate the group
        diffs = {tuple(np.round(np.mod(pos[i] - pos[idx[0]], TWO_PI), 6))
                 for i in idx}
        assert diffs == syms


class TestTupleWords:
    """The int-row T5 words against the tuple-word reference."""

    @staticmethod
    def check(pos, labs):
        idx, keys = canonical_set_torus(pos, labs)
        ref_idx, ref_keys = reference_canonical_set_torus(pos, labs)
        assert keys == ref_keys
        assert idx.tolist() == ref_idx.tolist()
        return [k for stage, k in keys if stage == "T5"]

    def test_labeled_grid(self):
        # a 6 x 7 grid: label 0 on every third column, the labels beside
        # it swapped on row 0, so T5 splits that row off
        pos, i, j = grid_coset(6, 7)
        labs = np.where(i % 3 == 0, 0, 1 + ((i % 3 == 1) ^ (j == 0)))
        t5 = self.check(pos, labs.tolist())
        assert t5[0] == ((0, 2), (1, 12))

    def test_union_of_two_cosets(self):
        a, _, _ = grid_coset(4, 6)
        b, _, _ = grid_coset(4, 6, (np.pi / 4, 0.3))
        t5 = self.check(np.vstack([a, b]), [0] * 48)
        assert t5 == [((0, 24),)]

    def test_labels_break_a_period(self):
        # a shifted 6 x 5 grid: the labels beside column class 0 swap from
        # row 3 on, so the coset's period along the rows is broken
        pos, i, j = grid_coset(6, 5, (0.1, 0.2))
        labs = np.where(i % 3 == 0, 0, 1 + ((i % 3 == 2) ^ (j >= 3)))
        t5 = self.check(pos, labs.tolist())
        assert t5[0] == ((0, 6), (1, 4))


class TestQuotientMatchesFullTorus:
    """canonical_set_torus on the quotient by the period lattice against
    the full-torus reference, on each input and on a translate of it."""

    @staticmethod
    def check(pos, labs, rng):
        for p in (pos, wrap_angle(pos + rng.uniform(0, TWO_PI, size=2))):
            idx, keys = canonical_set_torus(p, labs)
            ref_idx, ref_keys = reference_canonical_set_torus(p, labs)
            assert keys == ref_keys
            assert idx.tolist() == ref_idx.tolist()

    @pytest.mark.parametrize("p", [3, 5, 22, 32])
    def test_placed_grid(self, rng, p):
        pos = placed_grid(p, p + 1, rng)
        assert lattice_index(pos, [0] * len(pos)) == len(pos)
        self.check(pos, [0] * len(pos), rng)

    def test_sheared_helix_lattice(self, rng):
        pos = helix_angles(2000, 3, 0.8)
        assert lattice_index(pos, [0] * 2000) == 2000
        self.check(pos, [0] * 2000, rng)

    def test_random_cloud(self, rng):
        pos = rng.uniform(0, TWO_PI, size=(150, 2))
        assert lattice_index(pos, [0] * 150) == 1
        self.check(pos, [0] * 150, rng)

    def test_union_of_two_cosets(self, rng):
        a, _, _ = grid_coset(4, 6)
        b, _, _ = grid_coset(4, 6, (np.pi / 4, 0.3))
        self.check(np.vstack([a, b]), [0] * 48, rng)

    def test_union_with_a_partial_period(self, rng):
        # the rows of a 12 x 3 grid are closer than the second coset, so
        # the row period is proven and the next candidate fails
        a, _, _ = grid_coset(12, 3)
        b, _, _ = grid_coset(12, 3, (TWO_PI / 24, 1.05))
        pos = np.vstack([a, b])
        assert lattice_index(pos, [0] * 72) == 12
        self.check(pos, [0] * 72, rng)

    def test_label_sublattice(self, rng):
        # labels on every third column leave a period lattice of index 14
        # and three representatives, which T3 and T5 split
        pos, i, j = grid_coset(6, 7)
        labs = (i % 3).tolist()
        assert lattice_index(pos, labs) == 14
        self.check(pos, labs, rng)

    def test_labels_break_a_period(self, rng):
        pos, i, j = grid_coset(6, 5, (0.1, 0.2))
        labs = np.where(i % 3 == 0, 0, 1 + ((i % 3 == 2) ^ (j >= 3)))
        self.check(pos, labs.tolist(), rng)

    def test_seam(self, rng):
        for pos in seam_cases(rng):
            self.check(pos, [0] * len(pos), rng)


class TestPeriodLattice:
    def test_index_is_the_symmetry_group_order(self, rng):
        g = np.array([[i * TWO_PI / 3, j * TWO_PI / 3]
                      for i in range(3) for j in range(3)])
        cloud = rng.uniform(0, TWO_PI, size=(7, 2))
        sheared = helix_angles(30, 7, 0.8)
        cases = [(g, [0] * 9), (g, [i // 3 for i in range(9)]),
                 (cloud, [0] * 7), (np.vstack([g, cloud]), [0] * 16),
                 (sheared, [0] * 30), (sheared, [i % 5 for i in range(30)])]
        for pos, labs in cases:
            assert lattice_index(pos, labs) == len(brute_symmetries(pos, labs))

    def test_search_stops_at_the_first_failed_check(self):
        # the grid's periods are the union's, but its nearest candidate,
        # the offset of the second coset, fails first
        a, _, _ = grid_coset(4, 6)
        b, _, _ = grid_coset(4, 6, (np.pi / 4, 0.3))
        pos = np.vstack([a, b])
        assert len(brute_symmetries(pos, [0] * 48)) == 24
        assert lattice_index(pos, [0] * 48) == 1

    def test_near_coincident_points_prove_no_period(self):
        # pairs 0.8 eps long, turned by 60 degrees from one third of the
        # torus to the next: the shift by a third matches every point
        # within eps, but three shifts swap each pair, so its orbits hold
        # six points and not three
        half = 0.4e-7
        turn = np.radians(60.0) * np.arange(3)
        ends = half * np.c_[np.cos(turn), np.sin(turn)]
        centres = np.c_[1.0 + np.arange(3) * TWO_PI / 3, np.ones(3)]
        pos = np.r_[centres - ends, centres + ends]
        q, basis, orbit = _period_lattice(pos, np.zeros(6, dtype=int), 1e-7)
        assert (q, basis.tolist(), orbit.tolist()) == \
            (1, [[1, 0], [0, 1]], list(range(6)))

    @pytest.mark.parametrize("case", ["grid", "helix", "long", "cloud"])
    def test_margin_copies_match_brute_force(self, rng, case):
        eps = 1e-7
        if case == "cloud":
            basis, sites = TWO_PI * np.eye(2), rng.uniform(0, TWO_PI, (60, 2))
        else:
            pos = {"grid": lambda: grid_coset(22, 23)[0],
                   "helix": lambda: helix_angles(2000, 3, 0.8),
                   "long": lambda: helix_angles(25000, 3, 0.8)}[case]()
            basis = lattice_basis(pos, [0] * len(pos))
            sites = rng.uniform(0, 1, size=({"long": 1}.get(case, 5), 2)) @ basis
        copies, owner, offs = _lattice_copies(sites, basis, eps)
        assert np.array_equal(copies[:len(sites)], sites)
        assert np.allclose(copies, sites[owner] + offs @ basis)
        ij = np.array([(0, 0)] + [(i, j) for i in range(-3, 4)
                                  for j in range(-3, 4) if i or j])
        brute = (sites + (ij @ basis)[:, None]).reshape(-1, 2)
        brute_owner = np.tile(np.arange(len(sites)), len(ij))
        brute_offs = np.repeat(ij, len(sites), axis=0)
        assert cell_shapes(Voronoi(copies, qhull_options="Qbb Qc Qz Q12"),
                           sites) == \
            cell_shapes(Voronoi(brute, qhull_options="Qbb Qc Qz Q12"), sites)
        # nearest-site balls of points of the parallelogram
        pts = np.r_[sites, rng.uniform(0, 1, size=(200, 2)) @ basis]
        balls = []
        for cs, ow, of in ((copies, owner, offs),
                           (brute, brute_owner, brute_offs)):
            tree = cKDTree(cs)
            d, _ = tree.query(pts)
            balls.append([sorted((ow[k], *of[k]) for k in ball) for ball in
                          tree.query_ball_point(pts, d + eps)])
        assert balls[0] == balls[1]
        if case == "long":
            # a thin parallelogram: the lattice bound keeps the copies few
            assert len(copies) < 50


class TestTranslationCongruent:
    def test_roundtrip(self, rng):
        pos = rng.uniform(0, TWO_PI, size=(24, 2))
        t_true = rng.uniform(0, TWO_PI, size=2)
        pos_b = np.mod(pos + t_true, TWO_PI)
        t = torus_translation_congruent(pos, [0] * 24, pos_b, [0] * 24)
        assert t is not None
        assert np.max(wrap_dist(t, t_true)) < 1e-7

    def test_perturbed_rejected(self, rng):
        pos = rng.uniform(0, TWO_PI, size=(24, 2))
        pos_b = np.mod(pos + [0.4, 0.9], TWO_PI)
        pos_b[3, 0] += 1e-3
        assert torus_translation_congruent(pos, [0] * 24, pos_b,
                                           [0] * 24) is None

    def test_labels_respected(self, rng):
        pos = rng.uniform(0, TWO_PI, size=(24, 2))
        pos_b = np.mod(pos + [1.0, 0.2], TWO_PI)
        labs = [i % 3 for i in range(24)]
        assert torus_translation_congruent(pos, labs, pos_b, labs,
                                           1e-7) is not None
        labs2 = list(labs)
        labs2[0], labs2[1] = labs2[1], labs2[0]
        assert torus_translation_congruent(pos, labs, pos_b, labs2,
                                           1e-7) is None

    def test_concentric_tori_with_label_rows(self, rng):
        # two tori through the same angles, told apart only by their int
        # label rows: every angle pair holds two points with distinct rows
        pos = np.repeat(rng.uniform(0, TWO_PI, size=(12, 2)), 2, axis=0)
        rows = np.tile([[3, 0, 7], [5, 0, 7]], (12, 1))
        t_true = np.array([0.6, 2.1])
        perm = rng.permutation(24)
        pos_b = np.mod(pos + t_true, TWO_PI)[perm]
        t = torus_translation_congruent(pos, rows, pos_b, rows[perm])
        assert t is not None
        assert np.max(wrap_dist(t, t_true)) < 1e-7

    def test_square_lattice_translation_mod_lattice(self):
        g = np.array([[i * TWO_PI / 4, j * TWO_PI / 4]
                      for i in range(4) for j in range(4)])
        gb = np.mod(g + [0.3, 1.1], TWO_PI)
        t = torus_translation_congruent(g, [0] * 16, gb, [0] * 16)
        assert t is not None
        # any lattice representative of the true shift is acceptable
        assert np.max(wrap_dist(t, [0.3, 1.1], period=TWO_PI / 4)) < 1e-7

    def test_rect_lattice(self):
        g = np.array([[i * TWO_PI / 4, j * TWO_PI / 2]
                      for i in range(4) for j in range(2)])
        gb = np.mod(g + [0.77, 0.2], TWO_PI)
        t = torus_translation_congruent(g, [0] * 8, gb, [0] * 8)
        assert t is not None
        shifted = np.mod(g + t, TWO_PI)
        ok = [any(np.all(wrap_dist(s, q) < 1e-7) for q in gb)
              for s in shifted]
        assert all(ok)

    def test_size_mismatch(self):
        assert torus_translation_congruent([[0, 0]], ["a"], [], []) is None

    def test_empty_sets(self):
        t = torus_translation_congruent(np.zeros((0, 2)), [], np.zeros((0, 2)), [])
        assert t.tolist() == [0.0, 0.0]


def embed(phi, psi, r1, r2):
    return np.c_[r1 * np.cos(phi), r1 * np.sin(phi),
                 r2 * np.cos(psi), r2 * np.sin(psi)]


class TestTwoPlusTwo:
    def mixed(self, rng):
        """Torus points at one radius pair plus points on both core circles."""
        phi = rng.uniform(0, TWO_PI, 30)
        psi = rng.uniform(0, TWO_PI, 30)
        return np.r_[embed(phi, psi, 0.8, 0.6),
                     embed(rng.uniform(0, TWO_PI, 5), np.zeros(5), 1.0, 0.0),
                     embed(np.zeros(4), rng.uniform(0, TWO_PI, 4), 0.0, 1.0)]

    def test_direct_block_rotation(self, rng):
        a = self.mixed(rng)
        b = a @ block_rotation(0.7, 1.3).T
        v = two_plus_two_reduce(PointSet4(a),
                                PointSet4(b[rng.permutation(len(b))]),
                                E12, E12)
        assert v.congruent
        assert match_multisets(a @ v.rotation.T, b, 1e-6)

    def test_plane_swapping_rotation(self, rng):
        a = self.mixed(rng)
        m2 = block_rotation(0.4, 2.1) @ SWAP_PLANES
        assert np.linalg.det(m2) == pytest.approx(1.0)
        b = a @ m2.T
        v = two_plus_two_reduce(PointSet4(a), PointSet4(b), E12, E12)
        assert v.congruent
        assert match_multisets(a @ v.rotation.T, b, 1e-6)

    def test_general_planes_by_conjugation(self, rng):
        a = self.mixed(rng)
        b = a @ block_rotation(0.7, 1.3).T
        ra, rb = random_rotation(rng), random_rotation(rng)
        pa = E12 @ ra.T
        pb = E12 @ rb.T
        v = two_plus_two_reduce(PointSet4(a @ ra.T), PointSet4(b @ rb.T),
                                pa, pb)
        assert v.congruent
        assert match_multisets(a @ ra.T @ v.rotation.T, b @ rb.T, 1e-6)

    def test_circles_only(self):
        a = np.r_[embed(np.arange(6) * TWO_PI / 6, np.zeros(6), 1.0, 0.0),
                  embed(np.zeros(4), np.arange(4) * TWO_PI / 4 + 0.3,
                        0.0, 1.0)]
        b = a @ block_rotation(TWO_PI / 6, 0.9).T
        v = two_plus_two_reduce(PointSet4(a), PointSet4(b), E12, E12)
        assert v.congruent
        assert match_multisets(a @ v.rotation.T, b, 1e-6)

    @staticmethod
    def two_triangles(turn_inner):
        """Triangles of radii 1 and 0.5 in plane 1, a square in plane 2."""
        k3, k4 = np.arange(3) * TWO_PI / 3 + 0.7, np.arange(4) * TWO_PI / 4
        return np.r_[embed(k3, np.zeros(3), 1.0, 0.0),
                     embed(k3 + turn_inner, np.zeros(3), 0.5, 0.0),
                     embed(np.zeros(4), k4 + 0.3, 0.0, 1.0)]

    def test_concentric_circles_only(self, rng):
        # plane 1 reads as a regular hexagon without its radius ids, and
        # both canonical axes of A (direct and mirrored) lie on the outer
        # triangle while B's lies on the inner one
        a = self.two_triangles(TWO_PI / 6)
        m = block_rotation(0.9, 1.1)
        b = (a @ m.T)[rng.permutation(len(a))]
        v = two_plus_two_reduce(PointSet4(a), PointSet4(b), E12, E12)
        assert v.congruent and oracle_congruent(a, b).congruent
        assert match_multisets(a @ v.rotation.T, b, 1e-6)
        # only the inner triangle turned by another angle
        moved = self.two_triangles(TWO_PI / 6 + 0.5) @ m.T
        assert not two_plus_two_reduce(PointSet4(a), PointSet4(moved),
                                       E12, E12).congruent
        assert not oracle_congruent(a, moved).congruent

    def test_single_plane_position(self, rng):
        # one point on a plane circle fixes no residual symmetry there; the
        # torus angles are offset against that point alone
        tor = embed(rng.uniform(0, TWO_PI, 20), rng.uniform(0, TWO_PI, 20),
                    0.8, 0.6)
        a = np.r_[tor, embed([0.4], [0.0], 1.0, 0.0)]
        b = a @ block_rotation(0.7, 1.3).T
        v = two_plus_two_reduce(PointSet4(a),
                                PointSet4(b[rng.permutation(len(b))]),
                                E12, E12)
        assert v.congruent
        assert match_multisets(a @ v.rotation.T, b, 1e-6)
        # the plane point turned by another angle than the torus points
        moved = np.r_[b[:20], embed([1.3], [0.0], 1.0, 0.0)]
        assert not two_plus_two_reduce(PointSet4(a), PointSet4(moved),
                                       E12, E12).congruent

    def test_radius_scaled_rejected(self, rng):
        a = self.mixed(rng)
        b = a @ block_rotation(0.7, 1.3).T
        b[0] *= 1.001
        v = two_plus_two_reduce(PointSet4(a), PointSet4(b), E12, E12)
        assert not v.congruent
        assert v.stage

    def test_inconsistent_plane_shifts_rejected(self, rng):
        phi = rng.uniform(0, TWO_PI, 30)
        psi = rng.uniform(0, TWO_PI, 30)
        a = self.mixed2(phi, psi, rng)
        # shift only the torus points in plane 1; the circle points stay,
        # so no single block rotation explains both
        bmix = np.r_[embed(np.mod(phi + 0.5, TWO_PI), psi, 0.8, 0.6),
                     a[30:]]
        v = two_plus_two_reduce(PointSet4(a), PointSet4(bmix), E12, E12)
        assert not v.congruent

    def mixed2(self, phi, psi, rng):
        return np.r_[embed(phi, psi, 0.8, 0.6),
                     embed(rng.uniform(0, TWO_PI, 5), np.zeros(5), 1.0, 0.0),
                     embed(np.zeros(4), rng.uniform(0, TWO_PI, 4), 0.0, 1.0)]

    def test_flat_grid(self):
        ij = np.array([[i, j] for i in range(8) for j in range(8)], float)
        g = embed(ij[:, 0] * TWO_PI / 8, ij[:, 1] * TWO_PI / 8,
                  np.sqrt(0.5), np.sqrt(0.5))
        gb = g @ block_rotation(0.3, 0.44).T
        v = two_plus_two_reduce(PointSet4(g), PointSet4(gb), E12, E12)
        assert v.congruent
        assert match_multisets(g @ v.rotation.T, gb, 1e-6)


class TestBlockMatchExits:
    """The None exits of _block_match on direct coordinate inputs."""

    @staticmethod
    def match(ac, la, bc, lb):
        return _block_match(ac, np.asarray(la), bc, np.asarray(lb), 1e-9)

    def test_plane_split_counts_differ(self, rng):
        tor = embed(rng.uniform(0, TWO_PI, 4), rng.uniform(0, TWO_PI, 4),
                    0.8, 0.6)
        ac = np.r_[tor, embed([0.3], [0.0], 1.0, 0.0)]
        bc = np.r_[tor, embed([0.3], [0.2], 0.8, 0.6)]
        assert self.match(ac, [0] * 5, bc, [0] * 5) is None

    def test_origin_labels_differ(self, rng):
        tor = embed([0.4], [1.1], 0.8, 0.6)
        ac = np.r_[np.zeros((1, 4)), tor]
        assert self.match(ac, [0, 1], ac, [1, 0]) is None

    @pytest.mark.parametrize("plane", [1, 2])
    def test_circle_sets_not_congruent(self, plane):
        ang_a, ang_b = np.array([0.0, 1.0, 2.5]), np.array([0.0, 1.0, 2.0])
        square = np.arange(4) * TWO_PI / 4
        if plane == 1:
            ac = embed(ang_a, np.zeros(3), 1.0, 0.0)
            bc = embed(ang_b, np.zeros(3), 1.0, 0.0)
        else:
            ac = np.r_[embed(square, np.zeros(4), 1.0, 0.0),
                       embed(np.zeros(3), ang_a, 0.0, 1.0)]
            bc = np.r_[embed(square + 0.3, np.zeros(4), 1.0, 0.0),
                       embed(np.zeros(3), ang_b, 0.0, 1.0)]
        assert self.match(ac, [0] * len(ac), bc, [0] * len(bc)) is None

    def test_plane_two_axes_differ(self, rng):
        # torus points with plane-2 circle sets no rotation can match
        tor = embed(rng.uniform(0, TWO_PI, 6), rng.uniform(0, TWO_PI, 6),
                    0.8, 0.6)
        ac = np.r_[tor, embed(np.zeros(3), [0.0, 1.0, 2.5], 0.0, 1.0)]
        bc = np.r_[tor, embed(np.zeros(3), [0.0, 1.0, 2.0], 0.0, 1.0)]
        assert self.match(ac, [0] * 9, bc, [0] * 9) is None
