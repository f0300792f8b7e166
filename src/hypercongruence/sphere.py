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

from .geom import EPS_EQ, frame
from .condense import (component_ids, group_means, members_by_id, merge_close,
                       prune_by_key, tolerance_cluster)

_MAX_ROUNDS = 64


def _dedupe(points: np.ndarray, eps: float) -> np.ndarray:
    ids = merge_close(points, eps)
    if ids.max() + 1 == len(points):
        return points       # nothing merged
    reps = group_means(points, ids)[0]
    return reps / np.linalg.norm(reps, axis=1, keepdims=True)


def _merged_faces(hull: ConvexHull, points: np.ndarray) -> list:
    """Union coplanar hull simplices into true faces (vertex index lists)."""
    m = len(hull.simplices)
    eq = hull.equations
    coplanar = [(f, g) for f in range(m) for g in hull.neighbors[f]
                if g >= 0 and eq[f, :3] @ eq[g, :3] >= 1.0 - 1e-9]
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


def _face_edges(faces: list) -> set:
    edges = set()
    for cyc in faces:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            edges.add((a, b) if a < b else (b, a))
    return edges


def condense_sphere(points: np.ndarray, eps: float = EPS_EQ) -> np.ndarray:
    """Condense unit 3-vectors to a canonical fixed configuration.

    Returns a (k, 3) array with k in {1, 2, 4, 6, 12}: a point, an antipodal
    pair, or the vertices of a regular tetrahedron/octahedron/icosahedron.
    Output rows are sorted lexicographically.
    """
    f = np.asarray(points, dtype=float)
    if f.ndim != 2 or f.shape[1] != 3:
        raise ValueError("expected an (n, 3) array")
    if len(f) == 0:
        raise ValueError("empty set")
    f = f / np.linalg.norm(f, axis=1, keepdims=True)

    for _ in range(_MAX_ROUNDS):
        f = _dedupe(f, eps)
        n = len(f)
        if n == 1:
            break
        center = f.mean(axis=0)
        if np.linalg.norm(center) > 1e-7:
            # unbalanced (e.g. a small circle, which is only affinely flat
            # and would feed a degenerate hull to qhull): the mean direction
            # is a canonical single-point condensation
            f = center[None, :] / np.linalg.norm(center)
            break
        sv = np.linalg.svd(f, compute_uv=False)
        rank = int(np.sum(sv > 1e-7))
        if rank == 1:
            break  # antipodal pair (duplicates were merged already)
        if rank == 2:
            # balanced on a great circle: condense to the axis poles
            u, s, vt = np.linalg.svd(f)
            f = np.vstack([vt[2], -vt[2]])
            break
        hull = ConvexHull(f)
        if np.max(hull.equations[:, 3]) > eps:
            raise AssertionError("balanced spherical set with the origin "
                                 "outside its hull")
        faces = _merged_faces(hull, f)
        edges = _face_edges(faces)
        deg = np.bincount(np.ravel(list(edges)), minlength=n)
        res = prune_by_key([int(d) for d in deg])
        if res.progressed:
            f = f[list(res.indices)]
            continue
        res = prune_by_key([len(cyc) for cyc in faces])
        if res.progressed:
            f = np.array([f[faces[i]].mean(axis=0) for i in res.indices])
            continue
        d, fsize = int(deg[0]), len(faces[0])
        if fsize > 3:
            # cube or dodecahedron: pass to the dual's vertex set
            f = np.array([f[cyc].mean(axis=0) for cyc in faces])
            continue
        if d not in (3, 4, 5):
            raise AssertionError(f"unexpected regular combinatorics ({d}, {fsize})")
        edge_list = sorted(edges)
        lengths = [float(np.linalg.norm(f[a] - f[b])) for a, b in edge_list]
        ids = tolerance_cluster(lengths, eps).ids
        if ids.max() == 0:
            break  # regular tetrahedron, octahedron, or icosahedron
        res = prune_by_key([int(i) for i in ids])
        if len(res.indices) < n:
            f = np.array([(f[edge_list[i][0]] + f[edge_list[i][1]]) / 2.0
                          for i in res.indices])
            continue
        edge_id = {e: int(i) for e, i in zip(edge_list, ids)}
        face_keys = []
        for cyc in faces:
            ks = sorted(edge_id[(a, b) if a < b else (b, a)]
                        for a, b in zip(cyc, cyc[1:] + cyc[:1]))
            face_keys.append(tuple(ks))
        res = prune_by_key(face_keys)
        if not res.progressed:
            raise AssertionError("faces of a two-length solid cannot all be congruent")
        f = np.array([f[faces[i]].mean(axis=0) for i in res.indices])
    else:
        raise AssertionError("sphere condensing failed to terminate")

    f = f / np.linalg.norm(f, axis=1, keepdims=True)
    return f[np.lexsort(f.T[::-1])]
