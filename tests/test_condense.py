"""Pruning by key, tolerance and circular clustering, graph components,
merging of close points, dense and joint ranks, circle gaps, least
rotations and canonical axes."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_ranks
from hypercongruence.condense import (canonical_axes, circle_gaps,
                                      circular_cluster, component_ids,
                                      is_regular_polygon, joint_cluster,
                                      joint_ranks, least_rotations,
                                      members_by_id, merge_close,
                                      merge_points, merge_unit_points,
                                      padded_rows, prune_by_key,
                                      rank_labels, tolerance_cluster,
                                      wrap_angle)
from hypercongruence.condense import _COUNT_MIN, _COUNT_SPAN
from hypercongruence.geom import EPS_EQ

TWO_PI = 2 * math.pi


class TestPruneByKey:
    def test_smallest_class_wins(self):
        r = prune_by_key(["a", "a", "a", "b"])
        assert r.indices.tolist() == [3]
        assert r.histogram == (("a", 3), ("b", 1))
        assert r.progressed

    def test_tie_breaks_to_smaller_key(self):
        r = prune_by_key(["b", "a", "b", "a"])
        assert r.indices.tolist() == [1, 3]
        assert r.histogram == (("a", 2), ("b", 2))

    def test_two_shell_split(self):
        radii = [1.0] * 3 + [2.0] * 5
        ids = tolerance_cluster(radii).ids
        r = prune_by_key([int(i) for i in ids])
        assert r.indices.tolist() == [0, 1, 2]

    def test_single_class_no_progress(self):
        r = prune_by_key(["x", "x"])
        assert not r.progressed
        assert r.indices.tolist() == [0, 1]

    def test_histogram_is_lockstep_key(self):
        a = prune_by_key(["u", "v", "v", "w"])
        b = prune_by_key(["v", "w", "u", "v"])
        assert a.histogram == b.histogram

    def test_int_rows_named_as_tuples(self):
        rows = [(1, 2), (1, 2), (0, 1)]
        r = prune_by_key(np.array(rows))
        assert hash(r.histogram[0][0]) == hash((0, 1))
        assert r.indices.tolist() == [2]
        assert r.histogram == ((((0, 1), 1), ((1, 2), 2)))
        assert repr(r) == repr(prune_by_key(rows))

    @given(st.lists(st.integers(0, 5), min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_halving_when_multiple_classes(self, keys):
        r = prune_by_key(keys)
        if r.progressed:
            assert len(r.indices) <= len(keys) // 2 or \
                len(set(keys)) * len(r.indices) <= len(keys) + len(set(keys))
            # smallest class is never larger than the mean class size
            assert len(r.indices) <= len(keys) / len(set(keys))


class TestToleranceCluster:
    def test_empty(self):
        r = tolerance_cluster([])
        assert r.count == 0 and len(r.ids) == 0

    def test_tight_pair_merges(self):
        r = tolerance_cluster([1.0, 1.0 + 1e-12, 2.0])
        assert list(r.ids) == [0, 0, 1]

    def test_spread_values_split(self):
        eps = 1e-9
        r = tolerance_cluster([0.0, eps * 10, eps * 20], eps)
        assert list(r.ids) == [0, 1, 2]

    def test_three_clusters_with_margins(self, rng):
        centers = np.array([0.0, 1.0, 5.0])
        vals = np.concatenate([c + rng.uniform(-1e-12, 1e-12, 20)
                               for c in centers])
        perm = rng.permutation(len(vals))
        r = tolerance_cluster(vals[perm])
        assert r.count == 3

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
           st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant(self, vals, pyrandom):
        base = tolerance_cluster(vals, 1e-3)
        order = list(range(len(vals)))
        pyrandom.shuffle(order)
        shuf = tolerance_cluster([vals[i] for i in order], 1e-3)
        assert [base.ids[i] for i in order] == list(shuf.ids)

    def test_exact_ties_in_any_order(self, rng):
        # few distinct values, several within eps of each other: the sort
        # may order equal values either way, which must not show in ids
        # or in the bits of the representatives
        pool = np.r_[rng.normal(size=8), 0.5, 0.5 + 4e-10, 0.5 + 8e-10]
        for _ in range(50):
            vals = rng.choice(pool, 300)
            perm = rng.permutation(300)
            base, shuf = tolerance_cluster(vals), tolerance_cluster(vals[perm])
            assert np.array_equal(base.ids[perm], shuf.ids)
            assert base.reps.tobytes() == shuf.reps.tobytes()

    def test_joint_cluster_aligns_runs(self):
        ia, ib = joint_cluster([1.0, 2.0], [2.0 + 1e-13, 1.0], 1e-9)
        assert list(ia) == [0, 1]
        assert list(ib) == [1, 0]


def axes_of(angles, labels=None, eps=EPS_EQ):
    """(count, base, code row) of one configuration, unlabeled by default."""
    if labels is None:
        labels = [0] * len(angles)
    count, base, codes = canonical_axes(angles, labels, [len(angles)], eps)
    return count[0], base[0], codes[0]


def periodic_config(rng) -> tuple:
    """Sorted angles and 0/1 labels of a random configuration of length
    1 to 20 with a random rotational symmetry."""
    period = int(rng.integers(1, 5))
    reps = int(rng.integers(1, 6))
    ang0 = np.sort(rng.uniform(0, TWO_PI / reps, period))
    lab0 = rng.integers(0, 2, period).tolist()
    return (np.concatenate([ang0 + j * TWO_PI / reps for j in range(reps)]),
            lab0 * reps)


class TestCanonicalAxes:
    def test_regular_pentagon_full_symmetry(self):
        ang = np.arange(5) * TWO_PI / 5
        count, _, _ = axes_of(ang)
        assert count == 5

    def test_unique_label_pins_axis(self):
        ang = np.arange(5) * TWO_PI / 5 + 0.3
        count, base, _ = axes_of(ang, ["p", "p", "q", "p", "p"])
        assert count == 1
        # the single axis sits on one of the input points, stably
        assert min(abs(base - a % TWO_PI) for a in ang) < 1e-12
        _, shifted, _ = axes_of((ang + 1.0) % TWO_PI, ["p", "p", "q", "p", "p"])
        assert (shifted - base) % TWO_PI == pytest.approx(1.0)

    def test_square_alternating_labels(self):
        ang = np.arange(4) * TWO_PI / 4
        count, _, _ = axes_of(ang, ["A", "B", "A", "B"])
        assert count == 2

    def test_symmetry_order_exact(self):
        # rotation by spacing maps the configuration to itself, smaller
        # fractions do not
        ang = np.arange(6) * TWO_PI / 6
        labels = ["x", "y", "x", "y", "x", "y"]
        count, _, _ = axes_of(ang, labels)
        assert count == 3
        shift = TWO_PI / count
        rotated = sorted((a + shift) % TWO_PI for a in ang)
        assert np.allclose(rotated, sorted(ang % TWO_PI), atol=1e-9)

    def test_rotation_equivariance(self, rng):
        ang = np.sort(rng.uniform(0, TWO_PI, 9))
        labels = [i % 3 for i in range(9)]
        th = rng.uniform(0, TWO_PI)
        count, base, codes = canonical_axes(np.r_[ang, (ang + th) % TWO_PI],
                                            labels + labels, [9, 9])
        assert np.array_equal(codes[1], codes[0])
        assert count[1] == count[0]
        spacing = TWO_PI / count[0]
        d = (base[1] - base[0] - th) % TWO_PI
        assert min(d % spacing, spacing - d % spacing) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            canonical_axes([], [], [0])
        with pytest.raises(ValueError):
            canonical_axes([1.0, 2.0], [0, 0], [2, 0])

    def test_no_configurations(self):
        count, base, codes = canonical_axes([], [], [])
        assert len(count) == len(base) == len(codes) == 0

    def test_single_point(self):
        count, base, code = axes_of([1.25], ["z"])
        # label rank 0, then gap class 0 after the one label
        assert code.tolist() == [0, 1]
        assert count == 1
        assert base == pytest.approx(1.25)

    def test_one_call_quantizes_all_gaps_jointly(self):
        # alone, each configuration has gap classes {2, 2} and {2pi - 4}
        # and the same code; clustered together, the gaps 3e-9 and 6e-9
        # apart exceed eps = 1e-9 and fall into different classes
        eps = 1e-9
        a = np.array([0.0, 2.0, 4.0])
        b = np.array([0.0, 2.0 + 3e-9, 4.0 + 6e-9])
        labels = [0, 0, 0]
        _, _, alone_a = axes_of(a, labels, eps)
        _, _, alone_b = axes_of(b, labels, eps)
        assert np.array_equal(alone_a, alone_b)
        count, _, joint = canonical_axes(np.r_[a, b], labels + labels, [3, 3],
                                         eps)
        assert not np.array_equal(joint[0], joint[1])
        assert count.tolist() == [1, 1]

    def test_count_and_base_match_brute_force(self, rng):
        # the axes are the rotations of the token string equal to the code:
        # their number is the count, the smallest start gives the base; a
        # ragged batch ranks its labels and clusters its gaps jointly
        for _ in range(300):
            configs = [periodic_config(rng)
                       for _ in range(int(rng.integers(1, 6)))]
            lengths = [len(ang) for ang, _ in configs]
            labels = [x for _, lab in configs for x in lab]
            count, base, codes = canonical_axes(
                np.concatenate([ang for ang, _ in configs]), labels, lengths,
                EPS_EQ)
            orders = [np.argsort(ang) for ang, _ in configs]
            gids = np.split(tolerance_cluster(np.concatenate(
                [circle_gaps(ang[o]) for (ang, _), o in zip(configs, orders)])
            ).ids, np.cumsum(lengths)[:-1])
            # label ranks, then the gap classes after the distinct labels
            rank = np.split(np.array(dense_ranks(labels)),
                            np.cumsum(lengths)[:-1])
            for k, ((ang, _), order, n) in enumerate(zip(configs, orders,
                                                         lengths)):
                tokens = [t for i, g in zip(order, gids[k])
                          for t in (rank[k][i], len(set(labels)) + g)]
                rotations = [tuple(tokens[2 * s:] + tokens[:2 * s])
                             for s in range(n)]
                code = min(rotations)
                assert codes[k].tolist() == \
                    list(code) + [-1] * (codes.shape[1] - 2 * n)
                starts = [s for s in range(n) if rotations[s] == code]
                assert count[k] == len(starts)
                assert base[k] == ang[order][starts[0]]


class TestCircleGaps:
    def test_gaps_close_the_circle(self):
        gaps = circle_gaps(np.array([0.5, 2.0, 5.0]))
        assert np.allclose(gaps, [1.5, 3.0, TWO_PI - 4.5])
        assert gaps.sum() == pytest.approx(TWO_PI)

    def test_regular_polygon(self):
        ang = np.arange(5) * TWO_PI / 5 + 6.0     # wraps past 2*pi
        assert is_regular_polygon(ang, 1e-9)
        assert is_regular_polygon(ang[::-1], 1e-9)
        assert not is_regular_polygon(ang + [0, 0, 1e-6, 0, 0], 1e-7)
        assert is_regular_polygon([4.0], 1e-9)
        assert is_regular_polygon([], 1e-9)



def cyclic_segments():
    """Ragged batches of int strings: periodic ones (a word repeated),
    constant and length-1 ones among them, and long binary ones, whose
    rotations can share long prefixes."""
    word = st.lists(st.integers(0, 3), min_size=1, max_size=6)
    periodic = st.tuples(word, st.integers(1, 4)).map(lambda t: t[0] * t[1])
    binary = st.lists(st.integers(0, 1), min_size=1, max_size=40)
    return st.lists(st.one_of(periodic, binary), min_size=1, max_size=8)


class TestLeastRotations:
    @given(cyclic_segments())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, segments):
        first, count, rotated = least_rotations(np.concatenate(segments),
                                                [len(s) for s in segments])
        assert rotated.tolist() == [t for s in segments
                                    for t in min(s[k:] + s[:k]
                                                 for k in range(len(s)))]
        for s, f, c in zip(segments, first.tolist(), count.tolist()):
            rotations = [s[k:] + s[:k] for k in range(len(s))]
            least = min(rotations)
            assert f == rotations.index(least)
            assert c == rotations.count(least)

    def test_constant_and_single_segments(self):
        first, count, rotated = least_rotations([5, 5, 5, 2, 1, 0, 1, 0],
                                                [3, 1, 4])
        assert first.tolist() == [0, 0, 1]
        assert count.tolist() == [3, 1, 2]
        assert rotated.tolist() == [5, 5, 5, 2, 0, 1, 0, 1]

    def test_no_segments(self):
        out = least_rotations(np.zeros(0, dtype=int), [])
        assert [len(x) for x in out] == [0, 0, 0]


class TestComponentIds:
    def test_empty_edge_list(self):
        assert component_ids(4, []).tolist() == [0, 1, 2, 3]

    def test_isolated_vertices_are_own_components(self):
        ids = component_ids(5, [(1, 3)])
        assert ids.tolist() == [0, 1, 2, 1, 3]

    def test_ids_follow_smallest_vertex(self):
        # the component {4, 0} holds vertex 0, so it is numbered first even
        # though its edge is listed last
        ids = component_ids(6, [(5, 2), (3, 1), (4, 0)])
        assert ids.tolist() == [0, 1, 2, 1, 0, 2]

    def test_means_equal_loop_reference(self, rng):
        # 300 points near 100 centers, so merge_close classes have one to
        # several members; merge_points averages the components
        centers = rng.normal(size=(100, 4))
        pts = centers[rng.integers(0, 100, size=300)] + \
            1e-10 * rng.normal(size=(300, 4))
        means, counts, first = merge_points(pts, 1e-8)
        groups = members_by_id(merge_close(pts, 1e-8))
        assert len(means) == len(groups) < 100
        for k, members in enumerate(groups):
            assert counts[k] == len(members) and first[k] == members[0]
            assert means[k].tobytes() == pts[members].mean(axis=0).tobytes()

    def test_members_and_means(self):
        pts = np.array([[1.0, 0.0], [5.0, 5.0], [3.0, 0.0], [0.0, -5.0]])
        ids = merge_close(pts, 2.5)
        assert ids.tolist() == component_ids(4, [(2, 0)]).tolist()
        assert [m.tolist() for m in members_by_id(ids)] == [[0, 2], [1], [3]]
        means, counts, first = merge_points(pts, 2.5)
        assert counts.tolist() == [2, 1, 1] and first.tolist() == [0, 1, 3]
        assert means.tolist() == [[2.0, 0.0], [5.0, 5.0], [0.0, -5.0]]


class TestMergePoints:
    def test_no_merge_returns_the_input(self, rng):
        pts = rng.normal(size=(50, 4))
        means, counts, first = merge_points(pts, 1e-9)
        assert means is pts
        assert counts.tolist() == [1] * 50 and first.tolist() == list(range(50))
        unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        assert merge_unit_points(unit, 1e-9) is unit
        for few in (pts[:0], pts[:1]):
            means, counts, first = merge_points(few, 1e-9)
            assert means is few and len(counts) == len(first) == len(few)

    def test_unit_means_rescaled(self):
        x = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0.6, 0.8, 0, 0]])
        # the last two merge at 0.7; their mean is scaled to unit length
        got = merge_unit_points(x, 0.7)
        want = np.array([0.3, 0.9, 0, 0]) / math.hypot(0.3, 0.9)
        assert got.shape == (2, 4) and np.allclose(got[1], want)
        assert got[0].tolist() == [1.0, 0, 0, 0]


UNIT = 2.0 ** -30        # a dyadic grid step near the pipeline's tolerance


@st.composite
def sweep_clouds(draw):
    """(points, eps, labels or None) on a dyadic grid, where every squared
    distance is exact, so the brute-force reference needs no tolerance.

    Small integer coordinates give exact duplicates, many points sharing
    the first coordinate and first coordinates exactly eps apart; an added
    run of points eps apart along the first axis is a chain wider than
    eps."""
    dim = draw(st.integers(1, 6))
    step = draw(st.integers(1, 3))
    coord = st.integers(-6, 6)
    grid = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                         max_size=40))
    start = draw(st.lists(coord, min_size=dim, max_size=dim))
    chain = [[start[0] + step * i] + start[1:]
             for i in range(draw(st.integers(0, 6)))]
    rows = np.array(grid + chain, dtype=float).reshape(-1, dim)
    order = draw(st.permutations(range(len(rows))))
    pts = draw(st.sampled_from([0.0, 1.0, -3.5])) + UNIT * rows[order]
    labels = None
    if draw(st.booleans()):
        labels = np.array(draw(st.lists(st.integers(0, 2), min_size=len(pts),
                                        max_size=len(pts))))
    return pts, UNIT * step, labels


class TestMergeClose:
    def test_pairs_closer_than_eps_merge(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 1e-10], [5.0, 1e-3]])
        assert merge_close(pts, 1e-9).tolist() == [0, 1, 0, 2]

    def test_single_linkage_chains(self):
        # neighbors 0.6 apart link, so the chain merges although its ends
        # are 1.8 apart
        pts = np.c_[[0.0, 0.6, 1.2, 1.8, 5.0], np.zeros(5)]
        assert merge_close(pts, 0.7).tolist() == [0, 0, 0, 0, 1]

    def test_ids_follow_smallest_member(self):
        pts = np.c_[[9.0, 1.0, 9.0, 4.0, 1.0], np.zeros(5)]
        assert merge_close(pts, 1e-9).tolist() == [0, 1, 0, 2, 1]

    def test_labels_restrict_links(self):
        pts = np.zeros((4, 3))
        ids = merge_close(pts, 1e-9, labels=["b", "a", "b", "c"])
        assert ids.tolist() == [0, 1, 0, 2]
        # a chain cannot pass through a point of another label
        pts = np.c_[[0.0, 0.5, 1.0], np.zeros(3)]
        assert merge_close(pts, 0.6, labels=[1, 2, 1]).tolist() == [0, 1, 2]

    def test_fewer_than_two_points(self):
        assert merge_close(np.zeros((0, 4)), 1e-9).tolist() == []
        assert merge_close(np.ones((1, 4)), 1e-9).tolist() == [0]

    @given(sweep_clouds())
    @settings(max_examples=300, deadline=None)
    def test_equals_brute_single_linkage(self, cloud):
        pts, eps, labels = cloud
        link = ((pts[:, None] - pts[None]) ** 2).sum(axis=-1) <= eps * eps
        if labels is not None:
            link &= labels[:, None] == labels[None]
        ref = component_ids(len(pts), np.argwhere(np.triu(link, 1)))
        assert merge_close(pts, eps, labels).tolist() == ref.tolist()



class TestDenseRanks:
    def test_ranks_in_sorted_order(self):
        assert dense_ranks(["c", "a", "c", "b"]) == [2, 0, 2, 1]

    def test_tuples_and_empty(self):
        assert dense_ranks([(1, 2), (0, 5), (1, 2)]) == [1, 0, 1]
        assert dense_ranks([]) == []

    def test_plain_ints(self):
        ranks = dense_ranks([7, 3, 7])
        assert ranks == [1, 0, 1]
        assert all(type(r) is int for r in ranks)


def padded(multisets, width):
    """Each multiset's sorted (label, count) pairs, flattened and padded
    with -1 to the given number of pairs."""
    rows = []
    for m in multisets:
        flat = [x for pair in m for x in pair]
        rows.append(flat + [-1] * (2 * width - len(flat)))
    return np.array(rows, dtype=int).reshape(len(multisets), 2 * width)


class TestJointRanks:
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2)), max_size=30),
           st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2)), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_int_rows_rank_like_tuples(self, a, b):
        # one compound int column per side orders as the tuples do
        values, ra, rb = joint_ranks(np.array(a, dtype=int).reshape(-1, 2),
                                     np.array(b, dtype=int).reshape(-1, 2))
        assert ra.tolist() + rb.tolist() == dense_ranks(a + b)
        assert list(map(tuple, values.tolist())) == sorted(set(a + b))

    @given(st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=5),
                    min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_padded_multisets_rank_like_tuples(self, groups):
        # a ragged multiset ranks as its sorted (label, count) tuple, so a
        # shorter prefix still sorts first
        multisets = [tuple(sorted(Counter(g).items())) for g in groups]
        rows = padded(multisets, max(map(len, multisets)))
        half = len(rows) // 2
        _, ra, rb = joint_ranks(rows[:half], rows[half:])
        assert ra.tolist() + rb.tolist() == dense_ranks(multisets)

    @given(st.lists(st.integers(-5, 5), max_size=20),
           st.lists(st.integers(-5, 5), max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_hashable_and_int_paths_agree(self, a, b):
        values, ra, rb = joint_ranks(a, b)
        ivalues, ia, ib = joint_ranks(np.array(a, dtype=int),
                                      np.array(b, dtype=int))
        assert values == ivalues.tolist() == sorted(set(a + b))
        assert ra.tolist() == ia.tolist() and rb.tolist() == ib.tolist()

    @given(st.lists(st.lists(st.integers(0, 9), max_size=6), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_padded_rows_rank_like_tuples(self, strings):
        # int strings laid end to end come back as -1 padded rows
        rows = padded_rows([t for s in strings for t in s], list(map(len, strings)))
        assert rows.shape[0] == len(strings)
        assert [[t for t in row if t >= 0] for row in rows.tolist()] == strings
        assert joint_ranks(rows)[1].tolist() == dense_ranks(list(map(tuple, strings)))

    def test_hashable_labels(self):
        values, ra, rb = joint_ranks("cab", ["b", "d"])
        assert values == ["a", "b", "c", "d"]
        assert ra.tolist() == [2, 0, 1] and rb.tolist() == [1, 3]


def reference_prune(rows: list) -> tuple:
    """(indices, progressed, histogram, ranks) of prune_by_key and
    joint_ranks on hashable keys, by sorted(set(...)) and counting."""
    values = sorted(set(rows))
    rank = {v: i for i, v in enumerate(values)}
    count = Counter(rows)
    best = min(values, key=lambda v: (count[v], rank[v]))
    return ([i for i, r in enumerate(rows) if r == best], len(values) > 1,
            tuple((v, count[v]) for v in values), [rank[r] for r in rows])


# key counts on both sides of the size where joint_ranks starts counting
SIZES = st.one_of(st.integers(1, 40),
                  st.integers(_COUNT_MIN - 20, _COUNT_MIN + 200))
# key spans per key on both sides of the widest span that is counted
SPANS = st.sampled_from([0.01, 0.5, 1.0, _COUNT_SPAN - 0.1, _COUNT_SPAN,
                         _COUNT_SPAN + 0.1, 50.0])


@st.composite
def int_keys(draw):
    """A 1D or 2D int key array; values start at a possibly negative low
    and span about a drawn multiple of the key count (the product of the
    column spans for 2D keys)."""
    n, cols = draw(SIZES), draw(st.sampled_from([0, 1, 2]))
    span = max(1, round(draw(SPANS) * n))
    if cols:
        span = max(1, round(span ** (1 / cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo = draw(st.integers(-60, 60))
    return rng.integers(lo, lo + span, (n, cols) if cols else n)


def key_list(keys: np.ndarray) -> list:
    return list(map(tuple, keys.tolist())) if keys.ndim == 2 else keys.tolist()


class TestCountingPaths:
    @given(int_keys())
    @settings(max_examples=80, deadline=None)
    def test_prune_and_ranks_match_reference(self, keys):
        indices, progressed, histogram, ranks = reference_prune(key_list(keys))
        r = prune_by_key(keys)
        assert r.indices.tolist() == indices
        assert r.progressed == progressed
        assert r.histogram == histogram
        values, got = joint_ranks(keys)
        assert got.tolist() == ranks
        assert key_list(values) == [k for k, _ in histogram]

    @given(int_keys(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_joint_ranks_of_split_sides(self, keys, seed):
        cut = np.random.default_rng(seed).integers(0, len(keys) + 1)
        _, ra, rb = joint_ranks(keys[:cut], keys[cut:])
        assert ra.tolist() + rb.tolist() == reference_prune(key_list(keys))[3]
        if keys.ndim == 1:
            sa, sb = rank_labels(keys[:cut], keys[cut:])
            assert sa.tolist() == ra.tolist() and sb.tolist() == rb.tolist()
            # joint ranks are their own ranks
            assert all(x is y for x, y in zip(rank_labels(ra, rb), (ra, rb)))

    @given(int_keys(), st.integers(0, 2 ** 32 - 1), st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_equal_count_vectors_iff_equal_histograms(self, keys, seed, edits):
        # the other side is a shuffle of the keys with up to two keys
        # replaced, so its histogram often is and often is not equal
        rng = np.random.default_rng(seed)
        other = keys[rng.permutation(len(keys))]
        for _ in range(edits):
            other[rng.integers(len(other))] = keys[rng.integers(len(keys))] + 1
        values, ra, rb = joint_ranks(keys, other)
        same = np.array_equal(np.bincount(ra, minlength=len(values)),
                              np.bincount(rb, minlength=len(values)))
        assert same == (prune_by_key(ra).histogram == prune_by_key(rb).histogram)
        assert same == (Counter(key_list(keys)) == Counter(key_list(other)))


class TestCircularCluster:
    def test_seam_classes_merge_into_class_zero(self):
        res = circular_cluster([TWO_PI - 1e-12, 1.0, 1e-12, 3.0], 1e-9)
        assert res.ids.tolist() == [0, 1, 0, 2]
        assert res.reps.tolist() == [1e-12, 1.0, 3.0]

    def test_no_seam_merge_beyond_eps(self):
        res = circular_cluster([TWO_PI - 1e-3, 1e-3], 1e-9)
        assert res.count == 2

    def test_other_period(self):
        res = circular_cluster([0.1, 0.99999, 1.6, 2.0], 1e-3, period=1.0)
        # 1.6 -> 0.6, 2.0 -> 0.0 joins 0.99999 across the seam
        assert res.ids.tolist() == [1, 0, 2, 0]
        assert res.reps.tolist() == pytest.approx([0.0, 0.1, 0.6])

    def test_empty(self):
        res = circular_cluster([], 1e-9)
        assert res.count == 0 and len(res.ids) == 0

    def test_value_wrapping_to_period(self):
        # -1e-20 mod 2pi rounds to exactly 2pi and must land on 0
        assert float(np.mod(-1e-20, TWO_PI)) == TWO_PI
        assert wrap_angle([-1e-20]).tolist() == [0.0]
        res = circular_cluster([-1e-20, 0.0, 2.0], 1e-9)
        assert res.ids.tolist() == [0, 0, 1]
        assert res.reps.tolist() == [0.0, 2.0]

    @pytest.mark.parametrize("values, eps, period", [
        ([TWO_PI - 1e-12, 1.0, 1e-12, 3.0], 1e-9, TWO_PI),
        ([TWO_PI - 1e-3, 1e-3], 1e-9, TWO_PI),
        ([0.1, 0.99999, 1.6, 2.0], 1e-3, 1.0),
        ([-1e-20, 0.0, 2.0], 1e-9, TWO_PI)])
    def test_one_group_is_ungrouped(self, values, eps, period):
        plain = circular_cluster(values, eps, period)
        one = circular_cluster(values, eps, period,
                               groups=np.full(len(values), 4))
        assert np.array_equal(one.ids, plain.ids)
        assert one.reps.tobytes() == plain.reps.tobytes()

    def test_groups_are_separate_circles(self, rng):
        # per-group calls with the ids of each group shifted past the
        # classes of the groups before it, whose ids are in any order and
        # with gaps; stacks at 0, just below 2pi and in between merge
        # across the seam in some groups and not in others
        spots = np.array([0.0, 1e-10, TWO_PI - 2e-10, TWO_PI - 1e-6, 1.0, 3.0])
        for _ in range(200):
            n = int(rng.integers(0, 40))
            values = rng.choice(spots, n) + rng.uniform(0, 3e-10, n)
            groups = rng.choice([-2, 0, 5, 9], n)
            res = circular_cluster(values, 1e-9, groups=groups)
            ids, reps = np.empty(n, dtype=int), []
            for g in np.unique(groups):
                alone = circular_cluster(values[groups == g], 1e-9)
                ids[groups == g] = alone.ids + sum(map(len, reps))
                reps.append(alone.reps)
            assert np.array_equal(res.ids, ids)
            assert res.reps.tobytes() == np.concatenate([[]] + reps).tobytes()

    def test_seam_merge_in_one_group_only(self):
        res = circular_cluster([1e-12, TWO_PI - 1e-12, 1e-12, TWO_PI - 1e-12,
                                2.0], 1e-9, groups=[3, 3, 7, 1, 7])
        # group 1: one class; group 3: one seam class; group 7: two classes
        assert res.ids.tolist() == [1, 1, 2, 0, 3]
        assert res.reps.tolist() == [TWO_PI - 1e-12, 1e-12, 1e-12, 2.0]

    def test_grouped_empty(self):
        res = circular_cluster([], 1e-9, groups=np.zeros(0, dtype=int))
        assert res.count == 0 and len(res.ids) == 0
