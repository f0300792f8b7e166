"""Order-independent condensation helpers.

The primitives every stage of the pipeline shares: grouping nearly-equal
reals into classes (single linkage at the comparison tolerance) on a line
or on a circle, wrapping angles into one period, the gaps between sorted
angles and the regular-polygon test built on them, numbering the connected
components of a graph, merging points within a tolerance and averaging
points per component, ranking keys densely, keeping only the smallest
class under a canonical key, and computing the canonical axes
of labeled configurations on a circle.  Canonical axes quantize the gaps
of every configuration passed in one call together, which is what makes
their codes comparable.  The value groupings are deterministic functions
of the input multiset, never of input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .geom import EPS_EQ

TWO_PI = 2.0 * math.pi


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
    the usual price of non-transitivity near the tolerance boundary.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise ValueError("expected a flat value array")
    n = len(vals)
    if n == 0:
        return ClusterResult(np.zeros(0, dtype=int), np.zeros(0))
    order = np.argsort(vals, kind="stable")
    sv = vals[order]
    breaks = np.nonzero(np.diff(sv) > eps)[0]
    ids_sorted = np.zeros(n, dtype=int)
    ids_sorted[breaks + 1] = 1
    ids_sorted = np.cumsum(ids_sorted)
    ids = np.empty(n, dtype=int)
    ids[order] = ids_sorted
    starts = np.concatenate([[0], breaks + 1])
    return ClusterResult(ids, sv[starts])


def circular_cluster(values: Sequence[float], eps: float = EPS_EQ,
                     period: float = TWO_PI) -> ClusterResult:
    """tolerance_cluster of values on a circle of the given period.

    Values are wrapped into [0, period) first.  When the gap across the
    0/period seam is at most eps, the classes on both sides of it merge
    into class 0; ids stay dense and ordered by class minimum.
    """
    vals = wrap_angle(values, period)
    res = tolerance_cluster(vals, eps)
    if res.count > 1 and vals.min() + period - vals.max() <= eps:
        last = res.count - 1
        return ClusterResult(np.where(res.ids == last, 0, res.ids), res.reps[:last])
    return res


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
    rank = np.empty(len(first), dtype=int)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[labels]


def merge_close(points, eps: float, labels=None) -> np.ndarray:
    """component_ids of the points under the pairs at most eps apart (single
    linkage); with labels, only pairs with equal labels link."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        return np.arange(len(pts))
    pairs = cKDTree(pts).query_pairs(r=eps, output_type="ndarray")
    if labels is not None:
        ranks = np.asarray(dense_ranks(labels))
        pairs = pairs[ranks[pairs[:, 0]] == ranks[pairs[:, 1]]]
    return component_ids(len(pts), pairs)


def dense_ranks(keys) -> list:
    """Rank of each key among the distinct keys in sorted order."""
    distinct = sorted(set(keys))
    rank = dict(zip(distinct, range(len(distinct))))
    return [rank[k] for k in keys]


def members_by_id(ids: np.ndarray) -> list:
    """Ascending member indices of every id class, in id order."""
    order = np.argsort(ids, kind="stable")
    return np.split(order, np.cumsum(np.bincount(ids))[:-1])


def group_means(points: np.ndarray, ids: np.ndarray) -> tuple:
    """(mean point, member count) of every id class, in id order."""
    counts = np.bincount(ids)
    sums = np.column_stack([np.bincount(ids, weights=col) for col in points.T])
    return sums / counts[:, None], counts


def joint_cluster(a: Sequence[float], b: Sequence[float],
                  eps: float = EPS_EQ) -> tuple[np.ndarray, np.ndarray]:
    """Cluster the union of two value multisets; return ids aligned to each."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    res = tolerance_cluster(np.concatenate([a, b]), eps)
    return res.ids[:len(a)], res.ids[len(a):]


@dataclass(frozen=True)
class PruneResult:
    indices: tuple          # positions of the selected class, ascending
    key: Hashable           # its key
    progressed: bool        # False when only one class existed
    histogram: tuple        # sorted (key, count) pairs; lockstep summary


def prune_by_key(keys: Sequence[Hashable]) -> PruneResult:
    """Select the smallest key class, ties broken by smallest key."""
    if len(keys) == 0:
        raise ValueError("nothing to prune")
    buckets: dict = {}
    for i, k in enumerate(keys):
        buckets.setdefault(k, []).append(i)
    best = min(buckets, key=lambda k: (len(buckets[k]), k))
    hist = tuple(sorted((k, len(v)) for k, v in buckets.items()))
    return PruneResult(tuple(buckets[best]), best, len(buckets) > 1, hist)


def least_rotation(tokens: list) -> int:
    """Booth's algorithm: the first start index of the lexicographically
    least rotation."""
    s = tokens + tokens
    n = len(s)
    f = [-1] * n
    k = 0
    for j in range(1, n):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


@dataclass(frozen=True)
class AxesSet:
    """Canonical axes of a labeled circular configuration.

    ``count`` equally spaced rays, the first at ``base_angle``; every axis
    passes through a configuration point.  ``code`` is the canonical cyclic
    string (the least rotation of the alternating label/gap sequence).
    """

    count: int
    base_angle: float
    code: tuple

    @property
    def spacing(self) -> float:
        return TWO_PI / self.count


def canonical_axes(configs: Sequence[tuple], eps: float = EPS_EQ) -> list:
    """Canonical axes of each (angles, labels) configuration on the circle.

    Labels must be mutually comparable, canonical tokens (ints or int
    tuples); they are used verbatim in the code strings.  The gap lengths
    of all configurations are quantized by one tolerance clustering, so the
    codes of one call are comparable: equal codes mean congruent labeled
    configurations.  The least rotations of each cyclic sequence start at
    label positions; those starts are the axis points.
    """
    sorted_configs = []
    for angles, labels in configs:
        ang = wrap_angle(angles)
        if len(ang) == 0:
            raise ValueError("empty configuration")
        order = np.lexsort((np.arange(len(ang)), ang)).tolist()
        sorted_configs.append((ang[order], [labels[i] for i in order]))
    gaps = [circle_gaps(sa) for sa, _ in sorted_configs]
    gids = tolerance_cluster(np.concatenate(gaps) if gaps else [], eps).ids.tolist()
    out = []
    at = 0
    for sa, labels in sorted_configs:
        n = len(sa)
        tokens: list = []
        for lab, gid in zip(labels, gids[at:at + n]):
            tokens += [(0, lab), (1, gid)]
        at += n
        k = least_rotation(tokens)
        # label tokens sort before gap tokens, so the least rotation begins at a label
        assert k % 2 == 0
        # k is the first least rotation; the others follow every p tokens,
        # p the smallest period (even: odd shifts swap labels and gaps)
        p = next(p for p in range(2, 2 * n + 1, 2)
                 if 2 * n % p == 0 and tokens[p:] == tokens[:-p])
        out.append(AxesSet(2 * n // p, float(sa[k // 2]),
                           tuple(tokens[k:] + tokens[:k])))
    return out
