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
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .condense import (TWO_PI, canonical_axes, circular_cluster,
                       component_ids, joint_cluster, joint_ranks,
                       prune_by_key, wrap_angle)
from .geom import (EPS_EQ, PointSet4, Verdict, frame, match_multisets,
                   verify_rotation)
from .sphere import condense_sphere


def collapse_circle(angles: np.ndarray, labels: np.ndarray,
                    eps: float) -> tuple:
    """Merge coincident circle positions into multiset-labeled points.

    Distinct points of a labeled circle set may share one angle (stacked
    3D points project together); their relative order under angle sorting
    is then noise, so they must enter any canonical code as one position
    carrying the label multiset: a row of its (label rank, count) pairs,
    padded with -1 so that rows order as those pair tuples do.
    """
    ang = wrap_angle(np.atleast_1d(angles))
    ids = circular_cluster(ang, eps).ids
    # a position is the mean direction of its members, summed in angle
    # order; tied angles add equal terms, so any sort gives the same sums
    order = np.argsort(ang)
    c = np.bincount(ids[order], weights=np.cos(ang[order]))
    s = np.bincount(ids[order], weights=np.sin(ang[order]))
    reps = wrap_angle(list(map(math.atan2, s.tolist(), c.tolist())))
    span = int(labels.max(initial=0)) + 1
    pairs, counts = np.unique(ids * span + labels, return_counts=True)
    pos, lab = np.divmod(pairs, span)
    col = np.arange(len(pairs)) - np.searchsorted(pos, pos)
    rows = np.full((len(reps), 2 * int(col.max(initial=0)) + 2), -1)
    rows[pos, 2 * col] = lab
    rows[pos, 2 * col + 1] = counts
    return reps, rows


def circle_axes(a: np.ndarray, la: Sequence, b: np.ndarray, lb: Sequence,
                eps: float) -> Optional[tuple]:
    """Canonical axes (ax_a, ax_b) of two circle sets labeled by joint int
    ranks, or None when the merged position counts or the codes differ, so
    that no rotation maps one onto the other."""
    ra, ta = collapse_circle(a, la, eps)
    rb, tb = collapse_circle(b, lb, eps)
    rows = np.full((len(ra) + len(rb), max(ta.shape[1], tb.shape[1])), -1)
    rows[:len(ra), :ta.shape[1]], rows[len(ra):, :tb.shape[1]] = ta, tb
    ax_a, ax_b = canonical_axes([(ra, rows[:len(ra)]), (rb, rows[len(ra):])], eps)
    if ax_a.code != ax_b.code:
        return None
    return ax_a, ax_b


def congruence_2d_labeled(angles_a: np.ndarray, labels_a: Sequence,
                          angles_b: np.ndarray, labels_b: Sequence,
                          eps: float = EPS_EQ) -> Optional[float]:
    """Rotation angle t with (angles_a + t, labels_a) == (angles_b, labels_b)
    as labeled multisets on the circle, or None.

    Labels, hashable and comparable across the sets or rows of int tables,
    are ranked jointly at entry.  Runs in O(n log n): both sets are reduced
    to a canonical necklace code; equality of codes pins the shift up to
    the common symmetry, and one representative shift is verified directly.
    """
    a = wrap_angle(np.atleast_1d(angles_a))
    b = wrap_angle(np.atleast_1d(angles_b))
    if len(a) != len(b):
        return None
    if len(a) == 0:
        return 0.0
    _, la, lb = joint_ranks(labels_a, labels_b)
    axes = circle_axes(a, la, b, lb, eps)
    if axes is None:
        return None
    t = float(np.mod(axes[1].base_angle - axes[0].base_angle, TWO_PI))

    # every merged position must hold equal label multisets from both sides
    ids = circular_cluster(np.concatenate([a + t, b]), max(eps, 1e-12)).ids
    keys = ids * (int(max(la.max(), lb.max())) + 1) + np.concatenate([la, lb])
    if not np.array_equal(np.sort(keys[:len(a)]), np.sort(keys[len(a):])):
        return None
    return t


def _transported(fa: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The frame fa carried onto each target axis, (m, d, d).

    Each frame is fa moved by the rotation in the plane of its axis a and
    the unit target v that takes a to v and fixes the orthogonal
    complement: x -> x - ((a + v).x / (1 + a.v)) (a + v) + 2 (a.x) v.  A
    target on the far side (a.v < 0) starts from fa turned by a half-turn
    in the plane of its first two rows, so 1 + a.v stays at least 1.
    """
    v = np.asarray(targets, dtype=float).reshape(-1, len(fa))
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    base = np.repeat(fa[None], len(v), axis=0)
    base[v @ fa[0] < 0, :2] *= -1.0
    a = base[:, 0]
    coef = np.einsum("mjd,md->mj", base, v) / (1.0 + (a * v).sum(1))[:, None]
    fb = base - coef[:, :, None] * (a + v)[:, None, :]
    fb[:, 0] = v
    return fb


def _about_axis(pa: np.ndarray, la: Sequence, pb: np.ndarray, lb: Sequence,
                u: np.ndarray, targets: np.ndarray, eps: float, residual):
    """Candidate rotations mapping axis u onto each target v in turn.

    Heights along u and v are clustered jointly, and ``residual(proj_a,
    keys_a, proj_b, keys_b, eps)`` solves the orthogonal slice (a rotation
    matrix s, or None) with the joint ranks of (label, height id) as keys;
    each solution yields fb.T @ diag(1, s) @ fa.  The caller checks them.
    fa is the :func:`frame` of u and fb is fa carried onto v
    (_transported), so s = 1 stands for the least rotation taking u to v
    and the slices of nearby axes are alike in their coordinates.
    """
    fa = frame([u])
    fbs = _transported(fa, targets)
    h_a, proj_a = pa @ fa[0], pa @ fa[1:].T
    for fb in fbs:
        hids_a, hids_b = joint_cluster(h_a, pb @ fb[0], eps)
        _, ka, kb = joint_ranks(np.column_stack((la, hids_a)),
                                np.column_stack((lb, hids_b)))
        s = residual(proj_a, ka, pb @ fb[1:].T, kb, eps)
        if s is not None:
            lift = np.eye(len(fa))
            lift[1:, 1:] = s
            yield fb.T @ lift @ fa


def _turn_2d(qa: np.ndarray, ka: np.ndarray, qb: np.ndarray, kb: np.ndarray,
             eps: float) -> Optional[np.ndarray]:
    """A 2x2 rotation matching two equally long plane sets about the
    origin, each point labeled by its int key, or None.  Points off the
    origin add a jointly clustered radius id (congruence_2d_labeled).
    """
    rho_a, rho_b = np.hypot(qa[:, 0], qa[:, 1]), np.hypot(qb[:, 0], qb[:, 1])
    on_a, on_b = rho_a <= eps, rho_b <= eps
    if not np.array_equal(np.sort(ka[on_a]), np.sort(kb[on_b])):
        return None
    pids_a, pids_b = joint_cluster(rho_a[~on_a], rho_b[~on_b], eps)
    t = congruence_2d_labeled(
        np.arctan2(qa[~on_a, 1], qa[~on_a, 0]),
        np.column_stack((ka[~on_a], pids_a)),
        np.arctan2(qb[~on_b, 1], qb[~on_b, 0]),
        np.column_stack((kb[~on_b], pids_b)), eps)
    if t is None:
        return None
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


def congruence_3d_labeled(points_a: np.ndarray, labels_a: Sequence,
                          points_b: np.ndarray, labels_b: Sequence,
                          eps: float = EPS_EQ) -> Optional[np.ndarray]:
    """A proper rotation S in SO(3) with S @ a_i matching {(b_j, label_j)}
    as labeled multisets, or None.

    Labels are ranked at entry.  Only proper rotations are searched: every
    embedding of a 3D slice match into a positively oriented 4D congruence
    forces det(S) = +1.  The rarest labeled shell, ties going to the
    largest jointly clustered radius (the best-conditioned axis), condenses
    to a frame of 1, 2, 4, 6 or 12 points; S maps the first point of A's
    frame onto some point of B's, nearest first, and the circle test about
    that axis fixes the turn.
    """
    pa = np.asarray(points_a, dtype=float).reshape(-1, 3)
    pb = np.asarray(points_b, dtype=float).reshape(-1, 3)
    if len(pa) != len(pb):
        return None
    _, la, lb = joint_ranks(labels_a, labels_b)
    ra, rb = np.linalg.norm(pa, axis=1), np.linalg.norm(pb, axis=1)
    orig_a, orig_b = ra <= eps, rb <= eps
    if not np.array_equal(np.sort(la[orig_a]), np.sort(lb[orig_b])):
        return None
    pa, pb, ra, rb = pa[~orig_a], pb[~orig_b], ra[~orig_a], rb[~orig_b]
    la, lb = la[~orig_a], lb[~orig_b]
    if len(pa) == 0:
        return np.eye(3)

    rida, ridb = joint_cluster(ra, rb, eps)
    toks, ta, tb = joint_ranks(np.column_stack((la, rida)),
                               np.column_stack((lb, ridb)))
    counts = np.bincount(ta, minlength=len(toks))
    if not np.array_equal(counts, np.bincount(tb, minlength=len(toks))):
        return None
    # the rarest token, then the largest radius id, then the smallest token
    tok = np.lexsort((np.arange(len(toks)), -toks[:, 1], counts))[0]
    fa, fb = (condense_sphere(u / np.linalg.norm(u, axis=1, keepdims=True),
                              eps) for u in (pa[ta == tok], pb[tb == tok]))
    if len(fa) != len(fb):
        return None
    vtol = max(eps, 1e-9) * 10.0
    # the targets nearest to A's axis first: the least rotations are tried
    # first, so a symmetry search about a nearby axis finds the small turn
    # of a helix step before a half-turn flip
    fb = fb[np.argsort(-(fb @ fa[0]), kind="stable")]
    for s in _about_axis(pa, la, pb, lb, fa[0], fb, eps, _turn_2d):
        if match_multisets(pa @ s.T, pb, vtol, ta, tb):
            return s
    return None


def _anchor_class(aa: np.ndarray, ab: np.ndarray,
                  eps: float) -> Optional[tuple]:
    """The rarest class of anchors on each side under the signature "sorted
    distances to the k = min(4, m - 1) nearest other anchors", or None when
    the two sides' class histograms differ.

    The distance columns are clustered jointly, so the classes of both sides
    are comparable.  Keys rank the negated cluster id rows: prune_by_key
    breaks ties towards the smallest key, which is then the class with the
    largest neighbour distances, the best-conditioned anchors.
    """
    k = min(4, len(aa) - 1)
    da = cKDTree(aa).query(aa, k + 1)[0][:, 1:]
    db = cKDTree(ab).query(ab, k + 1)[0][:, 1:]
    cols = [joint_cluster(da[:, j], db[:, j], eps) for j in range(k)]
    _, ka, kb = joint_ranks(*(-np.column_stack(ids) for ids in zip(*cols)))
    pa, pb = prune_by_key(ka), prune_by_key(kb)
    if pa.histogram != pb.histogram:
        return None
    return aa[pa.indices], ab[pb.indices]


def _slice_3d(qa: np.ndarray, ka: np.ndarray, qb: np.ndarray, kb: np.ndarray,
              eps: float) -> Optional[np.ndarray]:
    """The 1+3 residual: congruence_3d_labeled on the (label, height id)
    keys, looked up by name at every call."""
    return congruence_3d_labeled(qa, ka, qb, kb, eps)


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
    _, base_a, base_b = joint_ranks(set_a.labels, set_b.labels)

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
