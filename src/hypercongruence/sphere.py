"""Equivariant condensation of finite sets on the unit 2-sphere.

Repeatedly replaces a set by a strictly smaller derived set (centroid
direction, pruned vertex/face classes, edge midpoints, face centroids of the
convex hull) until reaching one of the fixed configurations: a single point,
an antipodal pair, or a regular tetrahedron, octahedron, or icosahedron.
Every step commutes with rotations and reflections of the sphere.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull

from .geom import EPS_EQ, CENTROID_TOL, COPLANAR_TOL, SV_RANK_TOL, frame
from .condense import (component_ids, members_by_id, merge_unit_points,
                       prune_by_key, tolerance_cluster)


def _merged_faces(hull: ConvexHull, points: np.ndarray) -> list:
    """Union coplanar hull simplices into true faces (vertex index lists)."""
    m = len(hull.simplices)
    eq = hull.equations
    coplanar = [(f, g) for f in range(m) for g in hull.neighbors[f]
                if g >= 0 and eq[f, :3] @ eq[g, :3] >= 1.0 - COPLANAR_TOL]
    faces = []
    for members in members_by_id(component_ids(m, coplanar)):
        verts = sorted(set(hull.simplices[members].ravel().tolist()))
        normal = eq[members[0], :3]
        center = points[verts].mean(axis=0)
        # order the face cycle by angle around its normal
        _, t1, t2 = frame([normal, points[verts[0]] - center], 0.0)
        rel = points[verts] - center
        theta = np.arctan2(rel @ t2, rel @ t1)
        faces.append([verts[i] for i in np.argsort(theta, kind="stable")])
    return faces


def _cycle_edges(cyc: list) -> list:
    """The edges of a face cycle as (smaller, larger) vertex pairs."""
    return [(min(a, b), max(a, b)) for a, b in zip(cyc, cyc[1:] + cyc[:1])]


def condense_sphere(points: np.ndarray, eps: float = EPS_EQ) -> np.ndarray:
    """Condense unit 3-vectors to a canonical fixed configuration.

    Returns a (k, 3) array with k in {1, 2, 4, 6, 12}: a point, an antipodal
    pair, or the vertices of a regular tetrahedron/octahedron/icosahedron,
    or the set reached where a round stalls.  Output rows are sorted
    lexicographically.
    """
    f = np.asarray(points, dtype=float)
    if f.ndim != 2 or f.shape[1] != 3:
        raise ValueError("expected an (n, 3) array")
    if len(f) == 0:
        raise ValueError("empty set")
    f = f / np.linalg.norm(f, axis=1, keepdims=True)

    # every round that continues keeps fewer than n points: pruned classes
    # are strict subsets; a hull on n vertices has F <= 2n - 4 faces, so a
    # pruned face class has at most F / 2 <= n - 2 centroids; faces of four
    # sides or more number F <= n - 2; edge midpoints are taken below n
    while True:
        f = merge_unit_points(f, eps)
        n = len(f)
        if n == 1:
            break
        center = f.mean(axis=0)
        if np.linalg.norm(center) > CENTROID_TOL:
            # unbalanced (e.g. a small circle, which is only affinely flat
            # and would feed a degenerate hull to qhull): the mean direction
            # is a canonical single-point condensation
            f = center[None, :] / np.linalg.norm(center)
            break
        sv = np.linalg.svd(f, compute_uv=False)
        rank = int(np.sum(sv > SV_RANK_TOL))
        if rank == 1:
            break  # antipodal pair (duplicates were merged already)
        if rank == 2:
            # balanced on a great circle: condense to the axis poles
            u, s, vt = np.linalg.svd(f)
            f = np.vstack([vt[2], -vt[2]])
            break
        hull = ConvexHull(f)
        faces = _merged_faces(hull, f)
        edges = {e for cyc in faces for e in _cycle_edges(cyc)}
        deg = np.bincount(np.ravel(list(edges)), minlength=n)
        res = prune_by_key(deg)
        if res.progressed:
            f = f[res.indices]
            continue
        res = prune_by_key(np.fromiter(map(len, faces), int, len(faces)))
        if res.progressed:
            f = np.array([f[faces[i]].mean(axis=0) for i in res.indices])
            continue
        if len(faces[0]) > 3:
            # cube or dodecahedron: pass to the dual's vertex set
            f = np.array([f[cyc].mean(axis=0) for cyc in faces])
            continue
        edge_list = sorted(edges)
        lengths = [float(np.linalg.norm(f[a] - f[b])) for a, b in edge_list]
        ids = tolerance_cluster(lengths, eps).ids
        if ids.max() == 0:
            break  # regular tetrahedron, octahedron, or icosahedron
        res = prune_by_key(ids)
        if len(res.indices) < n:
            f = np.array([(f[edge_list[i][0]] + f[edge_list[i][1]]) / 2.0
                          for i in res.indices])
            continue
        edge_id = {e: int(i) for e, i in zip(edge_list, ids)}
        res = prune_by_key([tuple(sorted(edge_id[e] for e in _cycle_edges(c)))
                            for c in faces])
        if not res.progressed:
            break
        f = np.array([f[faces[i]].mean(axis=0) for i in res.indices])

    f = f / np.linalg.norm(f, axis=1, keepdims=True)
    return f[np.lexsort(f.T[::-1])]
