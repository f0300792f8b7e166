"""Labeled congruence tests in one and three dimensions.

The 4D pipeline bottoms out here: once a well-separated direction pair
has been fixed (or a pair of invariant circles), what remains is to match
labeled points on a circle or in a 3-dimensional slice.  Angles on a
circle are matched through the canonical-axes machinery; 3D point sets
are matched by condensing a least-frequent shell to its symmetry-bounded
core and trying the handful of frame alignments that survive.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional, Sequence

import numpy as np

from .condense import (TWO_PI, canonical_axes, circular_cluster,
                       joint_cluster, wrap_angle)
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
    return reps, [tuple(sorted(Counter(m).items())) for m in members]


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


def _rot_z(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def congruence_3d_labeled(points_a: np.ndarray, labels_a: Sequence,
                          points_b: np.ndarray, labels_b: Sequence,
                          eps: float = EPS_EQ) -> Optional[np.ndarray]:
    """A proper rotation S in SO(3) with S @ a_i matching {(b_j, label_j)}
    as labeled multisets, or None.

    Only proper rotations are searched: every embedding of a 3D slice match
    into a positively oriented 4D congruence forces det(S) = +1.
    """
    pa = np.asarray(points_a, dtype=float).reshape(-1, 3)
    pb = np.asarray(points_b, dtype=float).reshape(-1, 3)
    if len(pa) != len(pb):
        return None
    la, lb = list(labels_a), list(labels_b)
    ra, rb = np.linalg.norm(pa, axis=1), np.linalg.norm(pb, axis=1)
    orig_a, orig_b = ra <= eps, rb <= eps
    if Counter(l for l, o in zip(la, orig_a) if o) != \
            Counter(l for l, o in zip(lb, orig_b) if o):
        return None
    keep_a, keep_b = ~orig_a, ~orig_b
    pa, pb = pa[keep_a], pb[keep_b]
    la = [l for l, k in zip(la, keep_a) if k]
    lb = [l for l, k in zip(lb, keep_b) if k]
    if len(pa) != len(pb):
        return None
    if len(pa) == 0:
        return np.eye(3)

    rida, ridb = joint_cluster(np.linalg.norm(pa, axis=1),
                               np.linalg.norm(pb, axis=1), eps)
    toks_a = [(l, int(r)) for l, r in zip(la, rida)]
    toks_b = [(l, int(r)) for l, r in zip(lb, ridb)]
    ca, cb = Counter(toks_a), Counter(toks_b)
    if ca != cb:
        return None

    tok = min(ca, key=lambda t: (ca[t], t))
    sel_a = [i for i, t in enumerate(toks_a) if t == tok]
    sel_b = [i for i, t in enumerate(toks_b) if t == tok]
    ua = pa[sel_a] / np.linalg.norm(pa[sel_a], axis=1, keepdims=True)
    ub = pb[sel_b] / np.linalg.norm(pb[sel_b], axis=1, keepdims=True)
    fa, fb = condense_sphere(ua, eps), condense_sphere(ub, eps)
    if len(fa) != len(fb):
        return None
    vtol = max(eps, 1e-9) * 10.0

    if len(fa) <= 2:
        # an invariant axis: try u -> v, and u -> -v for the antipodal pair;
        # frame rows (e1, e2, axis), a cyclic shift keeps the orientation
        ma = frame(fa[:1])[[1, 2, 0]]
        for v in fb:
            mb = frame([v])[[1, 2, 0]]
            ca3, cb3 = pa @ ma.T, pb @ mb.T
            hids_a, hids_b = joint_cluster(ca3[:, 2], cb3[:, 2], eps)
            rho_a = np.hypot(ca3[:, 0], ca3[:, 1])
            rho_b = np.hypot(cb3[:, 0], cb3[:, 1])
            off_a, off_b = rho_a > eps, rho_b > eps
            on_toks_a = Counter((l, int(h)) for l, h, o
                                in zip(la, hids_a, off_a) if not o)
            on_toks_b = Counter((l, int(h)) for l, h, o
                                in zip(lb, hids_b, off_b) if not o)
            if on_toks_a != on_toks_b or off_a.sum() != off_b.sum():
                continue
            if off_a.any():
                pids_a, pids_b = joint_cluster(rho_a[off_a], rho_b[off_b], eps)
                th_a = np.arctan2(ca3[off_a, 1], ca3[off_a, 0])
                th_b = np.arctan2(cb3[off_b, 1], cb3[off_b, 0])
                tla = [(l, int(h), int(p)) for l, h, p in
                       zip([x for x, o in zip(la, off_a) if o],
                           hids_a[off_a], pids_a)]
                tlb = [(l, int(h), int(p)) for l, h, p in
                       zip([x for x, o in zip(lb, off_b) if o],
                           hids_b[off_b], pids_b)]
                t = congruence_2d_labeled(th_a, tla, th_b, tlb, eps)
                if t is None:
                    continue
            else:
                t = 0.0
            s = mb.T @ _rot_z(t) @ ma
            if match_multisets(pa @ s.T, pb, vtol, tuple(toks_a), tuple(toks_b)):
                return s
        return None

    # a bounded orbit frame (4, 6 or 12 points): try every same-gap image pair
    p1 = fa[0]
    dist = np.where(np.abs(np.abs(fa @ p1) - 1.0) < 1e-6, np.inf,
                    np.linalg.norm(fa - p1, axis=1))
    if not np.isfinite(dist).any():
        raise AssertionError("condensed frame of >2 points is collinear")
    p2 = fa[int(np.argmin(dist))]
    d12 = float(p1 @ p2)
    ma = frame([p1, p2])
    for i in range(len(fb)):
        for j in range(len(fb)):
            if i == j or abs(float(fb[i] @ fb[j]) - d12) > vtol:
                continue
            mb = frame([fb[i], fb[j]])
            if mb is None:
                continue
            s = mb.T @ ma
            if not match_multisets(fa @ s.T, fb, vtol):
                continue
            if match_multisets(pa @ s.T, pb, vtol, tuple(toks_a), tuple(toks_b)):
                return s
    return None


def one_plus_three_reduce(set_a: PointSet4, set_b: PointSet4,
                          anchors_a: np.ndarray, anchors_b: np.ndarray,
                          eps: float = EPS_EQ) -> Verdict:
    """Decide congruence of two normalized 4D sets from well-separated anchors.

    Any congruence must map the anchor family of ``set_a`` onto that of
    ``set_b``, so it maps the lexicographically least anchor a0 to *some*
    anchor b.  Each candidate pins one axis; the residual freedom is a
    rotation of the orthogonal 3-slice, decided by congruence_3d_labeled on
    the projections with signed heights folded into the labels.
    """
    aa = np.asarray(anchors_a, dtype=float).reshape(-1, 4)
    ab = np.asarray(anchors_b, dtype=float).reshape(-1, 4)
    if len(aa) != len(ab) or len(aa) == 0:
        return Verdict.no("anchor count")
    a0 = aa[np.lexsort(aa.T[::-1])[0]]
    fa = frame([a0])
    h_a = set_a.points @ fa[0]
    proj_a = set_a.points @ fa[1:].T
    base_a = set_a.labels if set_a.labels is not None else [0] * len(set_a)
    base_b = set_b.labels if set_b.labels is not None else [0] * len(set_b)

    for b in ab[np.lexsort(ab.T[::-1])]:
        fb = frame([b])
        h_b = set_b.points @ fb[0]
        hids_a, hids_b = joint_cluster(h_a, h_b, eps)
        la = [(l, int(h)) for l, h in zip(base_a, hids_a)]
        lb = [(l, int(h)) for l, h in zip(base_b, hids_b)]
        s = congruence_3d_labeled(proj_a, la, set_b.points @ fb[1:].T, lb, eps)
        if s is None:
            continue
        lift = np.zeros((4, 4))
        lift[0, 0] = 1.0
        lift[1:, 1:] = s
        r = fb.T @ lift @ fa
        if verify_rotation(set_a, set_b, r):
            return Verdict.yes(r, np.zeros(4))
    return Verdict.no("anchor alignment")
