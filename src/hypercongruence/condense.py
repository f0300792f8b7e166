"""Order-independent condensation helpers.

The primitives every stage of the pipeline shares: grouping nearly-equal
reals into classes (single linkage at the comparison tolerance) on a line
or on circles, wrapping angles into one period, the gaps between sorted
angles and the regular-polygon test built on them, numbering the connected
components of a graph, merging points within a tolerance into their class
means (:func:`merge_points`, the one coincidence merge every stage uses),
ranking labels jointly across sides into ints (int strings as rows padded
with -1), keeping only the smallest class under a canonical key, the least
rotations of cyclic int strings, and the canonical axes of labeled
configurations on a circle.  Many circles go to one call: a group id per
value clusters on each circle apart (:func:`circular_cluster`, the one
seam rule), and configurations laid end to end with a length each get
codes comparable across the call (:func:`canonical_axes`).  Groupings
depend on the input multiset, never on input order.

Two sides ranked jointly agree exactly when the count vectors of their
ranks (np.bincount with the number of ranks as minlength) are equal, so a
lockstep check compares those; the named (key, count) histogram of a
pruning is built only when a trace or a stage-key list reads it.  Labels
that already are joint ranks are not ranked again (:func:`rank_labels`),
and dense int keys are counted rather than sorted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from typing import Hashable, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .geom import EPS_EQ

TWO_PI = 2.0 * math.pi
# int keys spanning at most _COUNT_SPAN values per key are counted instead
# of sorted: always by prune_by_key, by joint_ranks from _COUNT_MIN keys on
# (the sort is cheaper below)
_COUNT_MIN = 512
_COUNT_SPAN = 4
# the unit sweep directions of merge_close for 1 to 6 columns: square roots
# of distinct squarefree ints, cut and normalised, so no nonzero int vector
# is orthogonal to one
_SWEEP = [u / np.linalg.norm(u) for u in
          (np.sqrt([1.0, 2.0, 3.0, 5.0, 6.0, 7.0])[:d] for d in range(1, 7))]


def wrap_angle(x, period: float = TWO_PI) -> np.ndarray:
    """Values reduced into [0, period), as a float array."""
    w = np.mod(np.asarray(x, dtype=float), period)
    # x mod period rounds up to period for tiny negative x
    return np.where(w >= period, 0.0, w)


def circle_gaps(sorted_angles: np.ndarray) -> np.ndarray:
    """Counterclockwise gaps between consecutive sorted angles, the last one
    closing the circle back to the first angle."""
    return np.diff(np.concatenate([sorted_angles, [sorted_angles[0] + TWO_PI]]))


def is_regular_polygon(angles, tol: float) -> bool:
    """True when the angles are the vertices of a regular polygon: every gap
    is within tol of 2*pi/n.  Fewer than two angles always qualify."""
    th = np.sort(wrap_angle(angles))
    return len(th) < 2 or \
        bool(np.max(np.abs(circle_gaps(th) - TWO_PI / len(th))) <= tol)


@dataclass(frozen=True)
class ClusterResult:
    """Cluster ids aligned with the input, plus one representative per class.

    Ids are assigned in ascending order of class value; representatives are
    class minima, so equal multisets yield identical id sequences.
    """

    ids: np.ndarray
    reps: np.ndarray

    @property
    def count(self) -> int:
        return len(self.reps)


def tolerance_cluster(values: Sequence[float], eps: float = EPS_EQ) -> ClusterResult:
    """Split sorted values where consecutive gaps exceed eps.

    Single linkage: chains of closely spaced values merge even if the chain
    is wider than eps.  That keeps the result order-free and symmetric, at
    the usual price of non-transitivity near the tolerance boundary.  The
    sort need not be stable: values it may order either way are equal, so
    they share a class and the sorted values are the same.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise ValueError("expected a flat value array")
    n = len(vals)
    if n == 0:
        return ClusterResult(np.zeros(0, dtype=int), np.zeros(0))
    order = np.argsort(vals)
    sv = vals[order]
    first = np.concatenate(([True], np.diff(sv) > eps))
    ids = np.empty(n, dtype=int)
    ids[order] = np.cumsum(first) - 1
    return ClusterResult(ids, sv[first])


def circular_cluster(values: Sequence[float], eps: float = EPS_EQ,
                     period: float = TWO_PI, groups=None) -> ClusterResult:
    """tolerance_cluster of values on a circle of the given period, or on
    one circle per group id with ``groups`` (an int per value).

    Values are wrapped into [0, period) first.  When the gap across the
    0/period seam of a circle is at most eps, its last class joins its
    first.  Ids are dense, by group id and then by class minimum; the
    representatives are the class minima.
    """
    vals = wrap_angle(values, period)
    if len(vals) == 0:
        return ClusterResult(np.zeros(0, dtype=int), np.zeros(0))
    if groups is None:
        order, start = np.argsort(vals), np.zeros(1, dtype=int)
    else:
        order = np.lexsort((vals, groups))
        g = np.asarray(groups)[order]
        start = np.flatnonzero(np.concatenate(([True], g[1:] != g[:-1])))
    sv = vals[order]
    new = np.concatenate(([True], np.diff(sv) > eps))
    new[start] = True
    cls = np.cumsum(new) - 1
    last = np.concatenate((start[1:], [len(sv)])) - 1
    seam = (cls[start] != cls[last]) & (sv[start] + period - sv[last] <= eps)
    reps = sv[new]
    if seam.any():
        gone, at = cls[last[seam]], np.arange(len(reps))
        target = at - np.searchsorted(gone, at)
        target[gone] = target[cls[start[seam]]]
        cls, reps = target[cls], np.delete(reps, gone)
    ids = np.empty_like(order)
    ids[order] = cls
    return ClusterResult(ids, reps)


def component_ids(n: int, edges) -> np.ndarray:
    """Connected-component id of each of n vertices under undirected edges.

    An isolated vertex is a component of its own; ids are dense and
    numbered in order of each component's smallest vertex.
    """
    e = np.asarray(edges, dtype=int).reshape(-1, 2)
    if len(e) == 0:
        return np.arange(n)
    graph = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    _, first = np.unique(labels, return_index=True)
    return np.argsort(np.argsort(first))[labels]


def merge_close(points, eps: float, labels=None) -> np.ndarray:
    """component_ids of the points under the pairs at most eps apart (single
    linkage); with labels, only pairs with equal labels link.

    A sweep runs before the k-d tree.  Two points within eps project within
    eps onto a unit vector, so in projection order consecutive gaps of at
    most eps join them.  Only the points with such a gap on either side go
    to the tree.  When there are none, which a sort of the projections
    (cheaper than their argsort) shows, every point is its own class.  The
    direction is :data:`_SWEEP` for the column count: the circles and grids
    of structured inputs tie in a coordinate, which would send every row
    to the tree.  Rounding cannot drop a pair.  A computed projection x.u
    in d columns errs by at most d ulps of |x|_1 <= d m, where m is the
    largest absolute coordinate, and a pair the tree reports is at most eps
    apart up to a few ulps of eps; so gaps up to eps plus 16 d ulps of
    d m + eps are kept.  The order of equal projections cannot show: their
    gaps are 0, so all of them are kept."""
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    if n < 2:
        return np.arange(n)
    proj = pts @ _SWEEP[d - 1]
    m = max(pts.max(), -pts.min())
    gap = eps + 16 * d * np.finfo(float).eps * (d * m + eps)
    if not (np.diff(np.sort(proj)) <= gap).any():
        return np.arange(n)
    order = np.argsort(proj)
    near = np.diff(proj[order]) <= gap
    kept = np.zeros(n, dtype=bool)
    kept[order[1:][near]] = kept[order[:-1][near]] = True
    keep = np.flatnonzero(kept)
    pairs = keep[cKDTree(pts[keep]).query_pairs(r=eps, output_type="ndarray")]
    if labels is not None:
        labs = np.asarray(labels)
        pairs = pairs[labs[pairs[:, 0]] == labs[pairs[:, 1]]]
    return component_ids(n, pairs)


def members_by_id(ids: np.ndarray) -> list:
    """Ascending member indices of every id class, in id order."""
    order = np.argsort(ids, kind="stable")
    return np.split(order, np.cumsum(np.bincount(ids))[:-1])


def merge_points(points: np.ndarray, eps: float, labels=None) -> tuple:
    """(means, counts, first): the classes of :func:`merge_close` as mean
    points, member counts and least member indices, in class order; the
    input itself, unit counts and arange(n) when nothing merges."""
    ids = merge_close(points, eps, labels)
    if ids.max(initial=-1) + 1 == len(ids):
        return points, np.ones(len(ids), dtype=np.intp), np.arange(len(ids))
    counts = np.bincount(ids)
    sums = np.column_stack([np.bincount(ids, weights=c) for c in points.T])
    return sums / counts[:, None], counts, np.unique(ids, return_index=True)[1]


def merge_unit_points(points: np.ndarray, eps: float) -> np.ndarray:
    """Unit points with every class of :func:`merge_close` at eps replaced
    by its mean scaled back to unit length, in class order; the input
    itself when nothing merges."""
    means = merge_points(points, eps)[0]
    if means is points:
        return points
    return means / np.linalg.norm(means, axis=1, keepdims=True)


def joint_cluster(a: Sequence[float], b: Sequence[float],
                  eps: float = EPS_EQ) -> tuple[np.ndarray, np.ndarray]:
    """Cluster the union of two value multisets; return ids aligned to each."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    res = tolerance_cluster(np.concatenate([a, b]), eps)
    return res.ids[:len(a)], res.ids[len(a):]


def joint_ranks(*sides) -> tuple:
    """(values, ranks of each side): dense ranks of the labels of all sides
    together, ordered as the labels, and the distinct labels in rank order.

    Int arrays are ranked by one sort, 2D ones by rows in lexicographic
    order (mixed-radix digits), so (label, id) columns make one compound
    label.  From _COUNT_MIN labels on, keys spanning at most _COUNT_SPAN
    values per label are ranked by marking the keys present instead: the
    sort is cheaper on fewer labels.  Other sides hold hashable, mutually
    comparable labels."""
    if all(isinstance(x, np.ndarray) and x.dtype.kind in "biu" for x in sides):
        x = np.concatenate(sides) if len(sides) > 1 else sides[0]
        key = x
        if x.ndim == 2:
            key, size = np.zeros(len(x), dtype=np.int64), 1
            for col in x.T:
                lo, hi = int(col.min(initial=0)), int(col.max(initial=0))
                if size * (hi - lo + 1) > 2 ** 62:
                    key, size = joint_ranks(key)[1], len(x)
                key, size = key * (hi - lo + 1) + (col - lo), size * (hi - lo + 1)
        span = int(key.max()) - int(key.min()) + 1 \
            if len(x) >= _COUNT_MIN else 0
        if 0 < span <= _COUNT_SPAN * len(x):
            # equal keys hold equal labels, so any row of a key stands for it
            key = np.subtract(key, key.min(), dtype=np.int64)
            seen = np.zeros(span, dtype=bool)
            seen[key] = True
            at = np.empty(span, dtype=int)
            at[key] = np.arange(len(x))
            ranks = (seen.cumsum() - 1)[key]
            first = at[seen]
        else:
            order = key.argsort()
            ordered = key[order]
            new = np.ones(len(x), dtype=bool)
            new[1:] = ordered[1:] != ordered[:-1]
            ranks = np.empty(len(x), dtype=int)
            ranks[order] = new.cumsum() - 1
            first = order[new]
        # np.take gathers the rows of a 2D array many times faster than
        # indexing with an int array does
        values = np.take(x, first, axis=0)
    else:
        values = sorted(set().union(*sides))
        rank = dict(zip(values, range(len(values))))
        ranks = np.fromiter(map(rank.__getitem__, chain(*sides)), int)
    ends = list(accumulate(map(len, sides)))
    return (values, *(ranks[e - len(x):e] for x, e in zip(sides, ends)))


def rank_labels(*sides) -> tuple:
    """The ranks of each side of :func:`joint_ranks`, without ranking
    sides that already are joint ranks: 1D int arrays whose values are
    0, 1, ..., k - 1 together, which are their own ranks."""
    if all(isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype.kind == "i"
           for x in sides):
        x = np.concatenate(sides) if len(sides) > 1 else sides[0]
        if len(x) == 0 or (x.min() >= 0 and x.max() < len(x)
                           and np.bincount(x).all()):
            return sides
    return joint_ranks(*sides)[1:]


def padded_rows(tokens, lengths) -> np.ndarray:
    """Int strings laid end to end, as the rows of one array padded with -1.

    For tokens >= 0 the rows order lexicographically as the strings do, a
    proper prefix first, so :func:`joint_ranks` of the rows ranks the
    strings as it ranks tuples of their tokens."""
    lengths = np.asarray(lengths, dtype=int)
    seg = np.repeat(np.arange(len(lengths)), lengths)
    rows = np.full((len(lengths), int(lengths.max(initial=0))), -1)
    rows[seg, np.arange(len(seg)) - (np.cumsum(lengths) - lengths)[seg]] = tokens
    return rows


@dataclass(frozen=True, eq=False)
class PruneResult:
    """The smallest key class of :func:`prune_by_key`, and the sizes of all
    classes.

    ``values`` holds the distinct keys in ascending order and ``counts``
    their class sizes.  ``histogram``, the sorted (key, count) pairs that
    stage keys and traces read, is built from them on first read: a
    lockstep check needs only to compare count vectors.
    """

    indices: np.ndarray     # positions of the selected class, ascending
    progressed: bool        # False when only one class existed
    values: object = field(repr=False)
    counts: np.ndarray = field(repr=False)

    @cached_property
    def histogram(self) -> tuple:
        """Sorted (key, count) pairs; int array keys as plain ints, the
        rows of a 2D int array as tuples of them."""
        names = self.values
        if isinstance(names, np.ndarray):
            names = names.tolist()
            if self.values.ndim == 2:
                names = list(map(tuple, names))
        return tuple(zip(names, self.counts.tolist()))

    def __repr__(self) -> str:
        return (f"PruneResult(indices={self.indices!r}, progressed="
                f"{self.progressed!r}, histogram={self.histogram!r})")


def prune_by_key(keys: Sequence[Hashable]) -> PruneResult:
    """Select the smallest key class, ties broken by smallest key.  A 1D
    int array whose keys span at most _COUNT_SPAN values per key, such as
    ranks, is counted by one bincount; other keys are ranked by
    joint_ranks first."""
    if len(keys) == 0:
        raise ValueError("nothing to prune")
    if isinstance(keys, np.ndarray) and keys.ndim == 1 and \
            keys.dtype.kind == "i":
        lo = int(keys.min())
        if int(keys.max()) - lo < _COUNT_SPAN * len(keys):
            full = np.bincount(keys - lo)
            values = np.flatnonzero(full)
            counts = full[values]
            best = values[np.argmin(counts)]
            return PruneResult(np.flatnonzero(keys == best + lo),
                               len(values) > 1, values + lo, counts)
    values, ranks = joint_ranks(keys)
    counts = np.bincount(ranks)
    best = int(np.argmin(counts))
    return PruneResult(np.flatnonzero(ranks == best), len(counts) > 1,
                       values, counts)


def least_rotations(tokens, lengths) -> tuple:
    """(first, count, rotated) for int strings laid end to end, lengths[i]
    >= 1 each: the first start of each least rotation, how many starts give
    it (length / smallest period), and the strings so rotated.  Prefix
    doubling (Karp-Miller-Rosenberg naming, as in Manber and Myers, "Suffix
    arrays", SIAM J. Comput. 1993) ranks cyclic substrings of length 1, 2,
    4, ... until a doubling splits no class or they span whole strings."""
    tokens, lengths = np.asarray(tokens, int), np.asarray(lengths, int)
    seg = np.repeat(np.arange(len(lengths)), lengths)
    begin = np.cumsum(lengths) - lengths
    start, size = begin[seg], lengths[seg]
    off = np.arange(len(seg)) - start
    cls, ahead, width = rank_labels(tokens)[0], start + (off + 1) % size, 1
    while width < lengths.max(initial=0):
        classes = int(cls.max()) + 1
        cls = joint_ranks(cls * classes + cls[ahead])[1]
        if cls.max() + 1 == classes:
            break
        ahead, width = ahead[ahead], 2 * width
    least = np.flatnonzero(cls == np.minimum.reduceat(cls, begin)[seg])
    first = off[least[np.diff(seg[least], prepend=-1) > 0]]
    return (first, np.bincount(seg[least], minlength=len(lengths)),
            tokens[start + (off + first[seg]) % size])


def canonical_axes(angles, labels, lengths, eps: float = EPS_EQ) -> tuple:
    """(count, base, codes) of labeled configurations on the circle laid end
    to end, configuration i the next lengths[i] >= 1 angles and labels: it
    has count[i] equally spaced axes, each through one of its points, the
    first at angle base[i], and codes[i] is the least rotation of its cyclic
    string of label rank, gap class, label rank, ... as a row padded with
    -1.  Labels are ranked and gaps quantized jointly over the call, so
    equal codes mean congruent labeled configurations.  Gap class g is
    L + g for L labels: labels sort below gaps, so least rotations start at
    labels, the axes.
    """
    lengths = np.asarray(lengths, dtype=int)
    if len(lengths) == 0:
        return lengths, np.zeros(0), np.zeros((0, 0), dtype=int)
    if lengths.min() == 0:
        raise ValueError("empty configuration")
    values, ranks = joint_ranks(labels)
    ang = wrap_angle(angles)
    seg = np.repeat(np.arange(len(lengths)), lengths)
    # within a configuration by angle, equal angles in input order
    order = np.lexsort((ang, seg))
    sa = ang[order]
    start = np.cumsum(lengths) - lengths
    ahead = sa[np.r_[1:len(sa), 0]]
    ahead[start + lengths - 1] = sa[start] + TWO_PI
    gids = tolerance_cluster(ahead - sa, eps).ids
    tokens = np.column_stack((ranks[order], len(values) + gids)).ravel()
    first, count, codes = least_rotations(tokens, 2 * lengths)
    return count, sa[start + first // 2], padded_rows(codes, 2 * lengths)
