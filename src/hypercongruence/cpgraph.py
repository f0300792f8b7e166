"""Closest-pair graphs of finite sets on spheres.

Vertices are the input points; edges join every pair realizing the minimum
pairwise distance (tolerance-closed).  In antipodal mode each input row
stands for a point pair {x, -x} and distances are minimized over signs,
which is the metric of the projective interpretation used for plane
invariants on the 5-sphere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geom import EPS_EQ, Stalled


@dataclass(frozen=True, eq=False)
class ClosestPairGraph:
    n: int
    delta: float
    edges: np.ndarray       # (m, 2) int rows (i, j), i < j, sorted


def closest_pair_graph(points: np.ndarray, antipodal: bool = False,
                       eps: float = EPS_EQ) -> ClosestPairGraph:
    """Build the closest-pair graph of distinct points in O(n log n) expected time.

    One k-nearest-neighbour query gives delta and the edges: the k = 4
    nearest neighbours of every point give delta, and those within
    delta + eps give its edges.  A point whose k-th neighbour is within
    that bound may have more, so those points are queried again with k
    doubled, bounded by delta + eps, until none fills its k.  The paper
    bounds the degrees (the kissing number 12 of the 3-sphere), so k = 16
    serves every graph on the 3-sphere; circles end at k = 4 and grids at
    k = 8.

    Raises Stalled when two items are within eps: the callers all
    require simple sets, and the pipeline falls back to the 1+3 step.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two points")
    # row r of the tree stands for point r % n, and the rows of -x mirror
    # those of x, so the points' own rows suffice; a point's own rows (and a
    # missing neighbour, index 2n or n) are not neighbours
    tree = cKDTree(np.vstack([pts, -pts]) if antipodal else pts)
    k = 4
    dists, idxs = tree.query(pts, k=k)
    other = idxs % n != np.arange(n)[:, None]
    delta = float(dists[other].min())
    if delta <= eps:
        what = "sign classes" if antipodal else "points"
        raise Stalled(f"two {what} at distance {delta:.3e}")
    bound = delta + eps
    rows, i, j = np.arange(n), [], []
    while True:
        full = dists[:, -1] <= bound
        done = ~full
        at, col = np.nonzero((dists[done] <= bound) & other[done])
        i.append(rows[done][at])
        j.append(idxs[done][at, col] % n)
        if not full.any():
            break
        rows, k = rows[full], 2 * k
        # the tree's bound is strict
        dists, idxs = tree.query(pts[rows], k=k,
                                 distance_upper_bound=np.nextafter(bound, np.inf))
        other = idxs % n != rows[:, None]
    # both ends of an edge list it, so its key i * n + j with i < j is found
    # once, or twice in antipodal mode if both signs of j are in reach
    i, j = np.concatenate(i), np.concatenate(j)
    key = (i * n + j)[i < j]
    key = np.unique(key) if antipodal else np.sort(key)
    return ClosestPairGraph(n, delta, np.stack(np.divmod(key, n), axis=1))
