"""Translation congruence on the flat torus and the invariant-plane reduction.

Once an invariant plane pair has been pinned, a 4D congruence restricted to
the generic points acts as a translation of the flat square torus (the two
polar angles).  Deciding labeled translation congruence on the torus is done
canonically: both sets are condensed to a translation-equivariant lattice
coset (Voronoi cell shapes and cell contents provide the pruning keys), and
the single surviving candidate translation is verified directly.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import Voronoi, cKDTree

from .condense import (TWO_PI, circular_cluster, dense_ranks, joint_cluster,
                       least_rotation, prune_by_key, tolerance_cluster,
                       wrap_angle)
from .geom import (EPS_EQ, PlaneSpan, PointSet4, Verdict, block_rotation,
                   frame, match_multisets, verify_rotation)
from .lowdim import circle_axes, congruence_2d_labeled

_NINE_OFFSETS = np.array([[0.0, 0.0]] + [[dx, dy]
                         for dx in (-TWO_PI, 0.0, TWO_PI)
                         for dy in (-TWO_PI, 0.0, TWO_PI)
                         if (dx, dy) != (0.0, 0.0)])

SWAP_PLANES = np.array([[0.0, 1.0, 0.0, 0.0],
                        [1.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 1.0],
                        [0.0, 0.0, 1.0, 0.0]])


def _replicate(sites: np.ndarray) -> np.ndarray:
    return np.concatenate([sites + off for off in _NINE_OFFSETS])


def _cell_shapes(vor: Voronoi, sites: np.ndarray, eps: float) -> list:
    """Canonical quantized shape key for each central site's Voronoi cell."""
    rels = []
    for i in range(len(sites)):
        region = vor.regions[vor.point_region[i]]
        if -1 in region or len(region) == 0:
            raise AssertionError("central torus cell is unbounded")
        rels.append(vor.vertices[region] - sites[i])
    flat = np.concatenate(rels)
    xids = tolerance_cluster(flat[:, 0], eps).ids
    yids = tolerance_cluster(flat[:, 1], eps).ids
    shapes = []
    at = 0
    for rel in rels:
        k = len(rel)
        pairs = list(zip(xids[at:at + k].tolist(), yids[at:at + k].tolist()))
        at += k
        ang = np.arctan2(rel[:, 1], rel[:, 0])
        ccw = [pairs[j] for j in np.argsort(ang, kind="stable")]
        # qhull may split a vertex shared by four cocircular sites in two
        ccw = [t for i, t in enumerate(ccw) if t != ccw[i - 1]]
        start = least_rotation(ccw)
        shapes.append(tuple(ccw[start:] + ccw[:start]))
    return shapes


def canonical_set_torus(positions: np.ndarray, labels: Sequence,
                        eps: float = 1e-7) -> tuple:
    """Condense a labeled torus set to a coset of its translation symmetry.

    Returns (indices into the input, keys).  Every pruning decision is
    recorded as a count/rank key, so two runs on translation-congruent
    inputs emit identical key lists and keep identical index subsets (up
    to the translation).  The returned subset is a single orbit of the
    symmetry group: the difference of any member with any member of a
    congruent run's result is a valid candidate translation.
    """
    pos = wrap_angle(np.asarray(positions, dtype=float).reshape(-1, 2))
    labs = list(labels)
    if len(pos) != len(labs):
        raise ValueError("label count does not match point count")
    if len(pos) == 0:
        raise ValueError("empty torus set")
    keys: list = []
    orig = np.arange(len(pos))
    cur_pos, cur_labs = pos, labs

    while True:
        lab_rank = dense_ranks(cur_labs)
        pr = prune_by_key(lab_rank)
        keys.append(("T1", pr.histogram))
        cand = np.array(pr.indices, dtype=int)
        if len(cand) == 1:
            keys.append(("T", 1))
            return orig[cand], keys

        while True:
            sites = cur_pos[cand]
            # Q12: a wide merge of nearly cocircular sites is no error
            vor = Voronoi(_replicate(sites), qhull_options="Qbb Qc Qz Q12")
            shapes = _cell_shapes(vor, sites, eps)
            spr = prune_by_key(shapes)
            keys.append(("T3", spr.histogram))
            if not spr.progressed:
                break
            cand = cand[np.array(spr.indices, dtype=int)]
            if len(cand) == 1:
                keys.append(("T", 1))
                return orig[cand], keys

        sites = cur_pos[cand]
        m = len(sites)
        tree = cKDTree(_replicate(sites))
        d, _ = tree.query(cur_pos)
        balls = tree.query_ball_point(cur_pos, d + eps)
        # one (site, point) row per point in the nearest-site ball of a site
        lens = np.fromiter(map(len, balls), int, len(balls))
        site, pt = np.unique(np.c_[np.concatenate(balls) % m,
                                   np.repeat(np.arange(len(cur_pos)), lens)],
                             axis=0).T
        w = cur_pos[pt] - sites[site]
        rows = np.c_[circular_cluster(w[:, 0], eps).ids,
                     circular_cluster(w[:, 1], eps).ids,
                     np.asarray(lab_rank)[pt]]
        split = np.cumsum(np.bincount(site, minlength=m))[:-1]
        words = [tuple(sorted(map(tuple, g.tolist())))
                 for g in np.split(rows, split)]
        ranks = dense_ranks(words)
        keys.append(("T5", tuple(sorted(Counter(ranks).items()))))
        if max(ranks) == 0:
            keys.append(("T", len(cand)))
            return orig[cand], keys
        orig = orig[cand]
        cur_pos, cur_labs = cur_pos[cand], ranks


def _embed_torus(pos: np.ndarray) -> np.ndarray:
    return np.c_[np.cos(pos[:, 0]), np.sin(pos[:, 0]),
                 np.cos(pos[:, 1]), np.sin(pos[:, 1])]


def torus_translation_congruent(pos_a: np.ndarray, labels_a: Sequence,
                                pos_b: np.ndarray, labels_b: Sequence,
                                eps: float = 1e-7) -> Optional[np.ndarray]:
    """A translation t with (pos_a + t, labels_a) == (pos_b, labels_b) on the
    torus, or None.  Runs the canonical condensation on both sides; the
    difference of any two canonical representatives is the only candidate
    that needs checking, and it is verified as a labeled multiset match.
    """
    pa, pb = wrap_angle(pos_a), wrap_angle(pos_b)
    if len(pa) != len(pb):
        return None
    if len(pa) == 0:
        return np.zeros(2)
    ca, keys_a = canonical_set_torus(pa, labels_a, eps)
    cb, keys_b = canonical_set_torus(pb, labels_b, eps)
    if keys_a != keys_b:
        return None
    p = pa[ca][np.lexsort(pa[ca].T[::-1])[0]]
    q = pb[cb][np.lexsort(pb[cb].T[::-1])[0]]
    t = np.mod(q - p, TWO_PI)
    shifted = wrap_angle(pa + t)
    vtol = max(eps, 1e-9) * 10.0
    if match_multisets(_embed_torus(shifted), _embed_torus(pb), vtol,
                       tuple(labels_a), tuple(labels_b)):
        return t
    return None


def _plane_split(coords: np.ndarray, tol: float) -> tuple:
    """Masks (origin, plane-1 only, plane-2 only, generic torus points)."""
    r1 = np.hypot(coords[:, 0], coords[:, 1])
    r2 = np.hypot(coords[:, 2], coords[:, 3])
    origin = (r1 <= tol) & (r2 <= tol)
    in1 = (r2 <= tol) & ~origin
    in2 = (r1 <= tol) & ~origin
    torus = ~(origin | in1 | in2)
    return r1, r2, origin, in1, in2, torus


def _axes_offsets(ang_a, labs_a, ang_b, labs_b, tor_a, tor_b, eps):
    """Offset ids of torus angles relative to the plane sets' symmetry axes.

    Returns (off_ids_a, off_ids_b) or None when the two plane sets cannot
    correspond under any rotation.  Empty plane sets impose no constraint.
    """
    n_t_a, n_t_b = len(tor_a), len(tor_b)
    if len(ang_a) != len(ang_b):
        return None
    if len(ang_a) == 0:
        return np.zeros(n_t_a, dtype=int), np.zeros(n_t_b, dtype=int)

    axes = circle_axes(ang_a, labs_a, ang_b, labs_b, eps)
    if axes is None:
        return None
    ax_a, ax_b = axes
    spacing = ax_a.spacing
    off_a = np.mod(tor_a - ax_a.base_angle, spacing)
    off_b = np.mod(tor_b - ax_b.base_angle, spacing)
    ids = circular_cluster(np.concatenate([off_a, off_b]), eps, spacing).ids
    return ids[:n_t_a], ids[n_t_a:]


def _block_match(ac: np.ndarray, la: Sequence, bc: np.ndarray, lb: Sequence,
                 eps: float) -> Optional[tuple]:
    """Angles (phi, psi) with block_rotation(phi, psi) mapping the labeled
    coordinate set ac onto bc, or None.  Both coordinate planes must be
    invariant; points are split into the two pure-plane circles and the
    generic torus part, and the torus translation is constrained to respect
    the circles through offset labels.
    """
    tol = max(eps, 1e-9)
    r1a, r2a, org_a, in1_a, in2_a, tor_a = _plane_split(ac, tol)
    r1b, r2b, org_b, in1_b, in2_b, tor_b = _plane_split(bc, tol)
    for ma, mb in ((org_a, org_b), (in1_a, in1_b), (in2_a, in2_b),
                   (tor_a, tor_b)):
        if ma.sum() != mb.sum():
            return None
    if Counter(l for l, o in zip(la, org_a) if o) != \
            Counter(l for l, o in zip(lb, org_b) if o):
        return None

    r1ids_a, r1ids_b = joint_cluster(r1a, r1b, tol)
    r2ids_a, r2ids_b = joint_cluster(r2a, r2b, tol)

    def circle_data(coords, mask, labs, rids, cols):
        ang = np.arctan2(coords[mask, cols[1]], coords[mask, cols[0]])
        toks = [(l, int(r)) for l, r, m in zip(labs, rids, mask) if m]
        return wrap_angle(ang), toks

    ang1_a, l1a = circle_data(ac, in1_a, la, r1ids_a, (0, 1))
    ang1_b, l1b = circle_data(bc, in1_b, lb, r1ids_b, (0, 1))
    ang2_a, l2a = circle_data(ac, in2_a, la, r2ids_a, (2, 3))
    ang2_b, l2b = circle_data(bc, in2_b, lb, r2ids_b, (2, 3))

    if not tor_a.any():
        phi = 0.0
        if len(ang1_a) or len(ang1_b):
            phi = congruence_2d_labeled(ang1_a, l1a, ang1_b, l1b, tol)
            if phi is None:
                return None
        psi = 0.0
        if len(ang2_a) or len(ang2_b):
            psi = congruence_2d_labeled(ang2_a, l2a, ang2_b, l2b, tol)
            if psi is None:
                return None
        return float(phi), float(psi)

    phi_t_a = wrap_angle(np.arctan2(ac[tor_a, 1], ac[tor_a, 0]))
    psi_t_a = wrap_angle(np.arctan2(ac[tor_a, 3], ac[tor_a, 2]))
    phi_t_b = wrap_angle(np.arctan2(bc[tor_b, 1], bc[tor_b, 0]))
    psi_t_b = wrap_angle(np.arctan2(bc[tor_b, 3], bc[tor_b, 2]))

    off1 = _axes_offsets(ang1_a, l1a, ang1_b, l1b, phi_t_a, phi_t_b, tol)
    if off1 is None:
        return None
    off2 = _axes_offsets(ang2_a, l2a, ang2_b, l2b, psi_t_a, psi_t_b, tol)
    if off2 is None:
        return None

    def torus_labels(labs, mask, r1ids, r2ids, o1, o2):
        base = [(l, int(p), int(q)) for l, p, q, m
                in zip(labs, r1ids, r2ids, mask) if m]
        return [b + (int(x), int(y)) for b, x, y in zip(base, o1, o2)]

    tla = torus_labels(la, tor_a, r1ids_a, r2ids_a, off1[0], off2[0])
    tlb = torus_labels(lb, tor_b, r1ids_b, r2ids_b, off1[1], off2[1])
    t = torus_translation_congruent(np.c_[phi_t_a, psi_t_a], tla,
                                    np.c_[phi_t_b, psi_t_b], tlb, tol)
    if t is None:
        return None
    return float(t[0]), float(t[1])


def two_plus_two_reduce(set_a: PointSet4, set_b: PointSet4,
                        plane_a: PlaneSpan, plane_b: PlaneSpan,
                        eps: float = EPS_EQ) -> Verdict:
    """Decide congruence of two normalized 4D sets given that any congruence
    maps plane_a onto plane_b (and so the orthocomplements onto each other).

    In adapted coordinates the unknown map is block 2x2 + 2x2 with both
    blocks orthogonal and determinant +1 overall: either two rotations, or
    two reflections, which a fixed plane swap turns back into rotations.
    """
    fa, fb = frame(plane_a.basis), frame(plane_b.basis)
    ac0 = set_a.points @ fa.T
    bc = set_b.points @ fb.T
    la = list(set_a.labels) if set_a.labels is not None else [0] * len(set_a)
    lb = list(set_b.labels) if set_b.labels is not None else [0] * len(set_b)

    for swapped in (False, True):
        ac = ac0 @ SWAP_PLANES if swapped else ac0
        res = _block_match(ac, la, bc, lb, eps)
        if res is None:
            continue
        m = block_rotation(*res)
        if swapped:
            m = m @ SWAP_PLANES
        r = fb.T @ m @ fa
        if verify_rotation(set_a, set_b, r):
            return Verdict.yes(r, np.zeros(4))
    return Verdict.no("plane pair alignment")
