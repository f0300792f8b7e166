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

from .geom import EPS_EQ, DuplicatePointsError


@dataclass(frozen=True, eq=False)
class ClosestPairGraph:
    n: int
    delta: float
    edges: np.ndarray       # (m, 2) int rows (i, j), i < j, sorted


def closest_pair_graph(points: np.ndarray, antipodal: bool = False,
                       eps: float = EPS_EQ) -> ClosestPairGraph:
    """Build the closest-pair graph of distinct points in O(n log n) expected time.

    Raises DuplicatePointsError when two items are closer than eps; the
    callers all require simple sets.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two points")
    work = np.vstack([pts, -pts]) if antipodal else pts
    tree = cKDTree(work)
    dists, idxs = tree.query(work, k=3 if antipodal else 2)
    # row i of work stands for point i % n; its own rows are not neighbors
    rows = np.arange(len(work))[:, None] % n
    delta = float(dists[idxs % n != rows].min())
    if delta <= eps:
        what = "sign classes" if antipodal else "points"
        raise DuplicatePointsError(f"two {what} at distance {delta:.3e}")
    # a pair is the key min * n + max of its points, so sorted distinct
    # keys are the sorted distinct edges; x and -x make no edge
    i, j = (tree.query_pairs(r=delta + eps, output_type="ndarray") % n).T
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    key = np.unique((lo * n + hi)[lo != hi])
    return ClosestPairGraph(n, delta, np.stack(np.divmod(key, n), axis=1))

