"""Labeled congruence tests in two and three dimensions, and the 1+3
reduction that leads to them.

The 4D pipeline bottoms out here.  Both reductions take one step,
_about_axis: pin an axis of A onto each candidate axis of B, cluster the
heights along the axes jointly, and solve the orthogonal slice with the
height ids as labels.  one_plus_three_reduce pins an anchor and solves
the 3-slice with congruence_3d_labeled, which pins a point of its
condensed rarest shell and matches labeled angles on the circle.  The
same step, run from B onto itself, finds symmetries of B; the anchor loop
tests one candidate per orbit of them, so a vertex-transitive set costs
two 3D tests instead of one per anchor.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import compress
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .condense import (TWO_PI, canonical_axes, circular_cluster,
                       component_ids, joint_cluster, prune_by_key,
                       wrap_angle)
from .geom import (EPS_EQ, PointSet4, Verdict, frame, match_multisets,
                   verify_rotation)
from .sphere import condense_sphere


def collapse_circle(angles: np.ndarray, labels: Sequence,
                    eps: float) -> tuple:
    """Merge coincident circle positions into multiset-labeled points.

    Distinct points of a labeled circle set may share one angle (stacked
    3D points project together); their relative order under angle sorting
    is then noise, so they must enter any canonical code as one position
    carrying the label multiset.
    """
    ang = wrap_angle(np.atleast_1d(angles))
    if len(ang) == 0:
        return ang, []
    labs = list(labels)
    ids = circular_cluster(ang, eps).ids
    members: list = [[] for _ in range(ids.max() + 1)]
    order = np.argsort(ang, kind="stable")
    for i, k in zip(order.tolist(), ids[order].tolist()):
        members[k].append(labs[i])
    # a position is the mean direction of its members, summed in angle order
    c = np.bincount(ids[order], weights=np.cos(ang[order]))
    s = np.bincount(ids[order], weights=np.sin(ang[order]))
    reps = wrap_angle([math.atan2(y, x) for y, x in zip(s.tolist(), c.tolist())])
    return reps, [((m[0], 1),) if len(m) == 1 else tuple(sorted(Counter(m).items()))
                  for m in members]


def circle_axes(a: np.ndarray, la: Sequence, b: np.ndarray, lb: Sequence,
                eps: float) -> Optional[tuple]:
    """Canonical axes (ax_a, ax_b) of two labeled circle sets, computed
    jointly after merging coincident positions, or None when the position
    counts or the codes differ, so that no rotation maps one onto the other.
    """
    ra, ta = collapse_circle(a, la, eps)
    rb, tb = collapse_circle(b, lb, eps)
    if len(ra) != len(rb):
        return None
    ax_a, ax_b = canonical_axes([(ra, ta), (rb, tb)], eps)
    if ax_a.code != ax_b.code:
        return None
    return ax_a, ax_b


def congruence_2d_labeled(angles_a: np.ndarray, labels_a: Sequence,
                          angles_b: np.ndarray, labels_b: Sequence,
                          eps: float = EPS_EQ) -> Optional[float]:
    """Rotation angle t with (angles_a + t, labels_a) == (angles_b, labels_b)
    as labeled multisets on the circle, or None.

    Labels must be hashable and comparable across the two sets (cluster ids,
    tuples of such).  Runs in O(n log n): both sets are reduced to a
    canonical necklace code; equality of codes pins the shift up to the
    common symmetry, and one representative shift is verified directly.
    """
    a = wrap_angle(np.atleast_1d(angles_a))
    b = wrap_angle(np.atleast_1d(angles_b))
    if len(a) != len(b):
        return None
    if len(a) == 0:
        return 0.0
    la, lb = list(labels_a), list(labels_b)
    axes = circle_axes(a, la, b, lb, eps)
    if axes is None:
        return None
    t = float(np.mod(axes[1].base_angle - axes[0].base_angle, TWO_PI))

    # every merged position must hold equal label multisets from both sides
    ids = circular_cluster(np.concatenate([a + t, b]), max(eps, 1e-12)).ids
    pos_a, pos_b = ids[:len(a)].tolist(), ids[len(a):].tolist()
    if Counter(zip(pos_a, la)) != Counter(zip(pos_b, lb)):
        return None
    return t


def _about_axis(pa: np.ndarray, la: Sequence, pb: np.ndarray, lb: Sequence,
                u: np.ndarray, targets: np.ndarray, eps: float, residual):
    """Candidate rotations mapping axis u onto each target v in turn.

    Heights along u and v are clustered jointly, and ``residual(proj_a,
    labels_a, height_ids_a, proj_b, labels_b, height_ids_b, eps)`` solves
    the orthogonal slice (a rotation matrix s, or None); each solution
    yields fb.T @ diag(1, s) @ fa.  The caller checks the candidates.
    """
    fa = frame([u])
    h_a, proj_a = pa @ fa[0], pa @ fa[1:].T
    for v in targets:
        fb = frame([v])
        hids_a, hids_b = joint_cluster(h_a, pb @ fb[0], eps)
        s = residual(proj_a, la, hids_a.tolist(),
                     pb @ fb[1:].T, lb, hids_b.tolist(), eps)
        if s is not None:
            lift = np.eye(len(fa))
            lift[1:, 1:] = s
            yield fb.T @ lift @ fa


def _turn_2d(qa: np.ndarray, la: Sequence, ha: list, qb: np.ndarray,
             lb: Sequence, hb: list, eps: float) -> Optional[np.ndarray]:
    """A 2x2 rotation matching two equally long plane sets about the
    origin, each point labeled by its label and height id, or None.  Points
    off the origin add a jointly clustered radius id (congruence_2d_labeled).
    """
    rho_a, rho_b = np.hypot(qa[:, 0], qa[:, 1]), np.hypot(qb[:, 0], qb[:, 1])
    on_a, on_b = rho_a <= eps, rho_b <= eps
    if Counter(zip(compress(la, on_a), compress(ha, on_a))) != \
            Counter(zip(compress(lb, on_b), compress(hb, on_b))):
        return None
    pids_a, pids_b = joint_cluster(rho_a[~on_a], rho_b[~on_b], eps)
    t = congruence_2d_labeled(
        np.arctan2(qa[~on_a, 1], qa[~on_a, 0]),
        list(zip(compress(la, ~on_a), compress(ha, ~on_a), pids_a.tolist())),
        np.arctan2(qb[~on_b, 1], qb[~on_b, 0]),
        list(zip(compress(lb, ~on_b), compress(hb, ~on_b), pids_b.tolist())),
        eps)
    if t is None:
        return None
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


def congruence_3d_labeled(points_a: np.ndarray, labels_a: Sequence,
                          points_b: np.ndarray, labels_b: Sequence,
                          eps: float = EPS_EQ) -> Optional[np.ndarray]:
    """A proper rotation S in SO(3) with S @ a_i matching {(b_j, label_j)}
    as labeled multisets, or None.

    Only proper rotations are searched: every embedding of a 3D slice match
    into a positively oriented 4D congruence forces det(S) = +1.  The rarest
    labeled shell, ties going to the largest jointly clustered radius (the
    best-conditioned axis), condenses to a frame of 1, 2, 4, 6 or 12
    points; S maps the first point of A's frame onto some point of B's, and
    the circle test about that axis fixes the turn.
    """
    pa = np.asarray(points_a, dtype=float).reshape(-1, 3)
    pb = np.asarray(points_b, dtype=float).reshape(-1, 3)
    if len(pa) != len(pb):
        return None
    la, lb = list(labels_a), list(labels_b)
    ra, rb = np.linalg.norm(pa, axis=1), np.linalg.norm(pb, axis=1)
    orig_a, orig_b = ra <= eps, rb <= eps
    if Counter(compress(la, orig_a)) != Counter(compress(lb, orig_b)):
        return None
    pa, pb, ra, rb = pa[~orig_a], pb[~orig_b], ra[~orig_a], rb[~orig_b]
    la, lb = list(compress(la, ~orig_a)), list(compress(lb, ~orig_b))
    if len(pa) == 0:
        return np.eye(3)

    rida, ridb = joint_cluster(ra, rb, eps)
    toks_a = list(zip(la, rida.tolist()))
    toks_b = list(zip(lb, ridb.tolist()))
    ca, cb = Counter(toks_a), Counter(toks_b)
    if ca != cb:
        return None

    tok = min(ca, key=lambda t: (ca[t], -t[1], t))
    sel_a = [i for i, t in enumerate(toks_a) if t == tok]
    sel_b = [i for i, t in enumerate(toks_b) if t == tok]
    ua = pa[sel_a] / np.linalg.norm(pa[sel_a], axis=1, keepdims=True)
    ub = pb[sel_b] / np.linalg.norm(pb[sel_b], axis=1, keepdims=True)
    fa, fb = condense_sphere(ua, eps), condense_sphere(ub, eps)
    if len(fa) != len(fb):
        return None
    vtol = max(eps, 1e-9) * 10.0
    for s in _about_axis(pa, la, pb, lb, fa[0], fb, eps, _turn_2d):
        if match_multisets(pa @ s.T, pb, vtol, tuple(toks_a), tuple(toks_b)):
            return s
    return None


def _anchor_class(aa: np.ndarray, ab: np.ndarray,
                  eps: float) -> Optional[tuple]:
    """The rarest class of anchors on each side under the signature "sorted
    distances to the k = min(4, m - 1) nearest other anchors", or None when
    the two sides' class histograms differ.

    The distance columns are clustered jointly, so the classes of both sides
    are comparable.  Keys are the negated cluster ids: prune_by_key breaks
    ties towards the smallest key, which is then the class with the largest
    neighbour distances, the best-conditioned anchors.
    """
    k = min(4, len(aa) - 1)
    da = cKDTree(aa).query(aa, k + 1)[0][:, 1:]
    db = cKDTree(ab).query(ab, k + 1)[0][:, 1:]
    cols = [joint_cluster(da[:, j], db[:, j], eps) for j in range(k)]
    pa, pb = (prune_by_key(list(map(tuple, (-np.column_stack(ids)).tolist())))
              for ids in zip(*cols))
    if pa.histogram != pb.histogram:
        return None
    return aa[list(pa.indices)], ab[list(pb.indices)]


def _slice_3d(qa: np.ndarray, la: Sequence, ha: list, qb: np.ndarray,
              lb: Sequence, hb: list, eps: float) -> Optional[np.ndarray]:
    """The 1+3 residual: congruence_3d_labeled on (label, height id)."""
    return congruence_3d_labeled(qa, list(zip(la, ha)), qb, list(zip(lb, hb)),
                                 eps)


def _symmetry_edges(set_b: PointSet4, base_b: Sequence, cands: np.ndarray,
                    i: int, eps: float) -> Optional[np.ndarray]:
    """The (j, perm[j]) pairs of an automorphism g of set_b with g·c0 = c_i,
    or None when the 3D test finds no such g.

    g is found by the step that pins the axis c0 of set_b onto c_i, and it
    must map set_b onto itself (labels included) and the candidates onto
    themselves within the 3D test's tolerance.
    """
    vtol = max(eps, 1e-9) * 10.0
    for g in _about_axis(set_b.points, base_b, set_b.points, base_b,
                         cands[0], cands[i:i + 1], eps, _slice_3d):
        if verify_rotation(set_b, set_b, g, vtol):
            dist, perm = cKDTree(cands).query(cands @ g.T)
            if dist.max() <= vtol:
                return np.column_stack([np.arange(len(cands)), perm])
    return None


def one_plus_three_reduce(set_a: PointSet4, set_b: PointSet4,
                          anchors_a: np.ndarray, anchors_b: np.ndarray,
                          eps: float = EPS_EQ) -> Verdict:
    """Decide congruence of two normalized 4D sets from well-separated anchors.

    Any congruence must map the anchor family of ``set_a`` onto that of
    ``set_b`` and keep the distances between anchors, so it maps the
    lexicographically least anchor a0 of the rarest signature class
    (_anchor_class) to *some* candidate c_i of the same class.  Each
    candidate pins one axis, and congruence_3d_labeled decides the
    orthogonal 3-slice.

    The candidates are tried in lexicographic order, c0 first, and those in
    the orbit of a rejected candidate under the symmetries of ``set_b`` are
    skipped: if R maps A onto B with R·a0 = g·c0 for an automorphism g of B,
    then g⁻¹R maps A onto B with a0 → c0.  Before testing c_i, while at least
    two candidates are untested, the same axis step looks for g with
    g·c0 = c_i and merges the orbits over the candidates g permutes.  The
    first search that fails ends the searching, so a decision spends at most
    one 3D test on a failed search.
    """
    aa = np.asarray(anchors_a, dtype=float).reshape(-1, 4)
    ab = np.asarray(anchors_b, dtype=float).reshape(-1, 4)
    if len(aa) != len(ab) or len(aa) == 0:
        return Verdict.no("anchor count")
    if len(aa) > 1:
        classes = _anchor_class(aa, ab, eps)
        if classes is None:
            return Verdict.no("anchor alignment")
        aa, ab = classes
    a0 = aa[np.lexsort(aa.T[::-1])[0]]
    cands = ab[np.lexsort(ab.T[::-1])]
    base_a = set_a.labels if set_a.labels is not None else [0] * len(set_a)
    base_b = set_b.labels if set_b.labels is not None else [0] * len(set_b)

    m = len(cands)
    orbit, edges = np.arange(m), np.zeros((0, 2), dtype=int)
    rejected = np.zeros(m, dtype=bool)
    search = True
    for i in range(m):
        if rejected[orbit == orbit[i]].any():
            continue
        if search and 0 < i < m - 1:
            pairs = _symmetry_edges(set_b, base_b, cands, i, eps)
            search = pairs is not None
            if search:
                # g·c0 = c_i puts c_i in the orbit of the rejected c0
                edges = np.vstack([edges, pairs])
                orbit = component_ids(m, edges)
                continue
        for r in _about_axis(set_a.points, base_a, set_b.points, base_b, a0,
                             cands[i:i + 1], eps, _slice_3d):
            if verify_rotation(set_a, set_b, r):
                return Verdict.yes(r, np.zeros(4))
        rejected[i] = True
    return Verdict.no("anchor alignment")
