"""Translation congruence on the flat torus and the invariant-plane reduction.

Once an invariant plane pair has been pinned, a 4D congruence restricted to
the generic points acts as a translation of the flat square torus (the two
polar angles).  Deciding labeled translation congruence on the torus is done
canonically: both sets are condensed to a translation-equivariant lattice
coset (Voronoi cell shapes and cell contents provide the pruning keys), and
the single surviving candidate translation is verified directly.

The cells are those of the sites on the torus, built by qhull in the plane
on one sheet plus a margin (:func:`periodic_voronoi`) rather than on nine
full copies.  Every cell lies within the covering radius R of its site, so
a copy farther than 2R from a site cannot cut that site's cell.  R is
bounded from above on a probe grid, so the margin can be too wide but
never too narrow, and only the central cells are read.  Cell contents
come from a periodic k-d tree (``boxsize`` 2pi) over the sites, which
needs positions in [0, 2pi): :func:`wrap_angle` gives them, mapping a
value that rounds up to 2pi onto 0.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import Voronoi, cKDTree

from .condense import (TWO_PI, circular_cluster, joint_cluster,
                       joint_ranks, least_rotations, padded_rows,
                       prune_by_key, tolerance_cluster, wrap_angle)
from .geom import (EPS_EQ, PlaneSpan, PointSet4, Verdict, block_rotation,
                   frame, match_multisets, verify_rotation)
from .lowdim import circle_axes, congruence_2d_labeled

SWAP_PLANES = np.array([[0.0, 1.0, 0.0, 0.0],
                        [1.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 1.0],
                        [0.0, 0.0, 1.0, 0.0]])


def periodic_voronoi(sites: np.ndarray) -> Voronoi:
    """Planar Voronoi diagram whose cells of the first len(sites) input
    points are the cells of the sites on the flat torus [0, 2pi)^2.

    Every point of the torus lies within the covering radius R of its
    nearest site, so every cell lies within R of its site, and a site
    farther than 2R away cannot cut it.  R is bounded by the largest
    nearest-site distance over a grid of about len(sites) probes of
    spacing h, plus h / sqrt(2).  The sites and those of their copies in
    the eight neighbouring squares that lie within 2R of the fundamental
    square (coordinate-wise) then form one qhull input; when 2R reaches
    2pi, all nine copies do.
    """
    g = math.isqrt(len(sites) - 1) + 1
    h = TWO_PI / g
    probes = np.arange(g) * h
    d, _ = cKDTree(sites, boxsize=TWO_PI).query(
        np.c_[np.repeat(probes, g), np.tile(probes, g)])
    reach = 2.0 * (d.max() + h / math.sqrt(2.0))
    shifts = TWO_PI * np.array([(0, 0), (-1, -1), (-1, 0), (-1, 1), (0, -1),
                                (0, 1), (1, -1), (1, 0), (1, 1)])
    copies = (sites + shifts[:, None]).reshape(-1, 2)
    if reach < TWO_PI:
        copies = copies[np.all(np.abs(copies - math.pi) <= math.pi + reach,
                               axis=1)]
    # Q12: a wide merge of nearly cocircular sites is no error
    return Voronoi(copies, qhull_options="Qbb Qc Qz Q12")


def _cell_shapes(vor: Voronoi, sites: np.ndarray, eps: float) -> tuple:
    """(shape rank of each central site's Voronoi cell, the shapes in rank
    order).  A shape lists the cell's vertices relative to its site as
    quantized (x id, y id) pairs, counterclockwise from the least one."""
    m = len(sites)
    regions = [vor.regions[r] for r in vor.point_region[:m].tolist()]
    sizes = np.fromiter(map(len, regions), int, m)
    verts = np.fromiter(chain.from_iterable(regions), int, int(sizes.sum()))
    if not sizes.all() or (verts < 0).any():
        raise AssertionError("central torus cell is unbounded")
    cell = np.repeat(np.arange(m), sizes)
    rel = vor.vertices[verts] - sites[cell]
    xids = tolerance_cluster(rel[:, 0], eps).ids
    yids = tolerance_cluster(rel[:, 1], eps).ids
    span = int(yids.max()) + 1
    order = np.lexsort((np.arctan2(rel[:, 1], rel[:, 0]), cell))
    tokens = (xids * span + yids)[order]
    # qhull may split a vertex shared by four cocircular sites in two
    prev = np.arange(-1, len(tokens) - 1)
    prev[np.cumsum(sizes) - sizes] += sizes
    keep = tokens != tokens[prev]
    tokens, cell = tokens[keep], cell[keep]
    sizes = np.bincount(cell, minlength=m)
    rot = least_rotations(tokens, sizes[sizes > 0])[2]
    shapes, ranks = joint_ranks(padded_rows(rot, sizes))
    return ranks, [tuple(divmod(t, span) for t in row if t >= 0)
                   for row in shapes.tolist()]


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
    if len(pos) != len(labels):
        raise ValueError("label count does not match point count")
    if len(pos) == 0:
        raise ValueError("empty torus set")
    keys: list = []
    orig = np.arange(len(pos))
    cur_pos, cur_labs = pos, labels

    while True:
        lab_rank = joint_ranks(cur_labs)[1]
        pr = prune_by_key(lab_rank)
        keys.append(("T1", pr.histogram))
        cand = pr.indices
        if len(cand) == 1:
            keys.append(("T", 1))
            return orig[cand], keys

        while True:
            sites = cur_pos[cand]
            ranks, shapes = _cell_shapes(periodic_voronoi(sites), sites, eps)
            spr = prune_by_key(ranks)
            keys.append(("T3", tuple((shapes[r], c) for r, c in spr.histogram)))
            if not spr.progressed:
                break
            cand = cand[spr.indices]
            if len(cand) == 1:
                keys.append(("T", 1))
                return orig[cand], keys

        sites = cur_pos[cand]
        m = len(sites)
        tree = cKDTree(sites, boxsize=TWO_PI)
        d, _ = tree.query(cur_pos)
        balls = tree.query_ball_point(cur_pos, d + eps)
        # one (site, point) row per point in the nearest-site ball of a site
        lens = np.fromiter(map(len, balls), int, len(balls))
        site, pt = np.unique(np.c_[np.concatenate(balls),
                                   np.repeat(np.arange(len(cur_pos)), lens)],
                             axis=0).T
        w = cur_pos[pt] - sites[site]
        rows = np.c_[circular_cluster(w[:, 0], eps).ids,
                     circular_cluster(w[:, 1], eps).ids,
                     lab_rank[pt]]
        # a site's word: its (x id, y id, label) rows sorted, as one int row
        rows = rows[np.lexsort(np.c_[site, rows].T[::-1])]
        ranks = joint_ranks(padded_rows(
            rows.ravel(), 3 * np.bincount(site, minlength=m)))[1]
        keys.append(("T5", prune_by_key(ranks).histogram))
        if ranks.max() == 0:
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
                       labels_a, labels_b):
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

    _, ra, rb = joint_ranks(labs_a, labs_b)
    axes = circle_axes(ang_a, ra, ang_b, rb, eps)
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
    if not np.array_equal(np.sort(la[org_a]), np.sort(lb[org_b])):
        return None

    r1ids_a, r1ids_b = joint_cluster(r1a, r1b, tol)
    r2ids_a, r2ids_b = joint_cluster(r2a, r2b, tol)

    def circle_data(coords, mask, labs, rids, cols):
        ang = np.arctan2(coords[mask, cols[1]], coords[mask, cols[0]])
        return wrap_angle(ang), np.column_stack((labs[mask], rids[mask]))

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
        return np.column_stack((labs[mask], r1ids[mask], r2ids[mask], o1, o2))

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
    _, la, lb = joint_ranks(set_a.labels, set_b.labels)

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
