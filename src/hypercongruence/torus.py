"""Translation congruence on the flat torus and the 2+2 reduction.

Once an invariant plane pair has been pinned, a 4D congruence is, in
frames adapted to the two planes, a block rotation turning each plane by
its own angle, after a fixed reflection of both planes when it reverses
their orientations (:func:`_block_match`).  The origin and the points of
one plane's circle only constrain the turns; with nothing else, each
plane's turn is labeled_rotation in the plane.  On the other, generic,
points the block rotation acts as a translation of the flat square torus
of their two polar angles, labeled by offsets from the circles'
canonical axes.

Deciding labeled translation congruence on the torus is done
canonically: both sets are condensed to a translation-equivariant lattice
coset (Voronoi cell shapes and cell contents provide the pruning keys), and
the single surviving candidate translation is verified directly.

The condensation runs on the quotient of the plane by a lattice of periods
of the labeled set, Lambda' >= 2pi Z^2 (:func:`_period_lattice`).  A period
maps cells and cell contents onto themselves, so every key is that of the
full torus with each count multiplied by the index [Lambda' : 2pi Z^2], and
one representative per orbit stands for the whole orbit: a lattice coset
is one site.  The periods are kept exactly, as an int lattice in Hermite
normal form over (2pi / Q) Z^2, and proven by matching the set with a
periodic k-d tree (boxsize 2pi), which needs positions in [0, 2pi):
:func:`wrap_angle` gives them, mapping a value that rounds up to 2pi onto
0.  A set with no period has Lambda' = 2pi Z^2, the full torus.

The cells are those of the representatives in the plane, built by qhull
from the representatives and those of their copies under a Lagrange-Gauss
reduced basis of Lambda' that lie within a margin of the fundamental
parallelogram (:func:`_lattice_copies`).  Every cell lies within the
covering radius R of its site, bounded from above on a probe grid, so a
copy farther than 2R from a site cannot cut that site's cell; in the
coordinates of the reduced basis, no copy more than two steps from a site
can either.  The margin can be too wide but never too narrow, and only
the central cells are read.  Cell contents come from a plain k-d tree over
the same copies.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import Voronoi, cKDTree

from .condense import (TWO_PI, circular_cluster, component_ids, joint_ranks,
                       least_rotations, padded_rows, prune_by_key,
                       rank_labels, tolerance_cluster, wrap_angle)
from .geom import (EPS_EQ, TORUS_EPS, PointSet4, Stalled, Verdict,
                   block_rotation, frames, match_multisets, match_tol,
                   radius_tol, verify_rotation)
from .lowdim import circle_axes, labeled_rotation

SWAP_PLANES = np.eye(4)[[1, 0, 3, 2]]
RING = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)])


def _hermite(rows) -> tuple:
    """(a, b, d) with a, d > 0 and 0 <= b < d: the Hermite basis (a, b),
    (0, d) of the int lattice that the int rows span, which has rank 2."""
    first, rest = None, []
    for row in rows:
        if first is None:
            first = row
            continue
        while row[0]:
            q = first[0] // row[0]
            first, row = row, (first[0] - q * row[0], first[1] - q * row[1])
        rest.append(row[1])
    if first[0] < 0:
        first = (-first[0], -first[1])
    d = math.gcd(*rest)
    return first[0], first[1] % d, d


def _reduced_basis(a: int, b: int, d: int) -> np.ndarray:
    """A Lagrange-Gauss reduced basis, as int rows, of the lattice with
    Hermite basis (a, b), (0, d): the first row is a shortest vector."""
    u, v = (a, b), (0, d)
    while True:
        if u[0] * u[0] + u[1] * u[1] > v[0] * v[0] + v[1] * v[1]:
            u, v = v, u
        uu = u[0] * u[0] + u[1] * u[1]
        k = (2 * (u[0] * v[0] + u[1] * v[1]) + uu) // (2 * uu)
        if k == 0:
            return np.array([u, v], dtype=np.int64)
        v = (v[0] - k * u[0], v[1] - k * u[1])


def _period_lattice(pos: np.ndarray, labs: np.ndarray, eps: float) -> tuple:
    """(Q, basis, orbit): a lattice Lambda' >= 2pi Z^2 of periods of the
    labeled set, as a reduced int basis over (2pi / Q) Z^2, and the orbit
    id of every point under it, numbered in order of the orbits' least
    points.

    Candidates are the differences v = s - s0 from the first point s0 of
    the rarest label class (ties to the least label) to the others of its
    class, nearest first; those already in Lambda' are skipped.  The order
    of v on the torus is at most the class size k, so v / 2pi is snapped
    to the nearest rationals of denominator at most k, and the snapped v
    must move every point within eps onto a distinct point of its label.
    Each such check at least doubles the index; the search stops at the
    first failed one, or once the orbit of s0 fills its class, when
    Lambda' is the whole period group.  Near-coincident points can make
    the matched permutations join more than an orbit; then no period is
    proven.
    """
    n = len(pos)
    members = np.flatnonzero(labs == np.argmin(np.bincount(labs)))
    diff = pos[members] - pos[members[0]]
    diff -= TWO_PI * np.rint(diff / TWO_PI)
    diff = diff[np.argsort(np.hypot(diff[:, 0], diff[:, 1]), kind="stable")]
    q, (a, b, d) = 1, (1, 0, 1)
    tree, edges, at = None, [], 1
    while q * q // (a * d) < len(members):
        c = diff[at:] * (q / TWO_PI)
        u = np.rint(c).astype(np.int64)
        inside = ((np.hypot(*(c - u).T) * (TWO_PI / q) <= eps)
                  & (u[:, 0] % a == 0) & ((u[:, 1] - u[:, 0] // a * b) % d == 0))
        if inside.all():
            break
        at += int(np.argmin(inside))
        f = [Fraction(x).limit_denominator(len(members))
             for x in (diff[at] / TWO_PI).tolist()]
        v = TWO_PI * np.array([float(x) for x in f])
        if np.hypot(*(diff[at] - v)) > eps:
            break
        if tree is None:
            tree = cKDTree(pos, boxsize=TWO_PI)
        dist, j = tree.query(wrap_angle(pos + v), distance_upper_bound=eps)
        if not np.isfinite(dist).all() or (labs[j] != labs).any() or \
                np.bincount(j, minlength=n).max() > 1:
            break
        edges.append(np.c_[np.arange(n), j])
        r = math.lcm(q, *(x.denominator for x in f))
        a, b, d = _hermite([(a * (r // q), b * (r // q)), (0, d * (r // q)),
                            tuple(x.numerator * (r // x.denominator) for x in f)])
        q, at = r, at + 1
    orbit = component_ids(n, np.concatenate(edges)) if edges else np.arange(n)
    if (np.bincount(orbit) != q * q // (a * d)).any():
        q, (a, b, d), orbit = 1, (1, 0, 1), np.arange(n)
    return q, _reduced_basis(a, b, d), orbit


def _lattice_copies(sites: np.ndarray, basis: np.ndarray, eps: float) -> tuple:
    """(copies, owner, offsets): the sites, which lie in the fundamental
    parallelogram P of the reduced lattice basis b1, b2, then those of
    their copies site + i * b1 + j * b2 within a margin of P; the site
    each copy is of, and its (i, j).

    The copies hold every site that cuts the cell of one of the sites, and
    every site within eps of the nearest-site distance of a point of P.
    The cell of s lies within the covering radius R of s, so a site t
    that cuts it has |t - s| <= 2R, and a site of a point's ball lies
    within R + eps of the point.  R is bounded by the largest distance from a grid of about len(sites)
    probes over P to the nearest of the sites and of their eight
    neighbouring copies within two probe spacings of P, plus half the
    longer diagonal of a probe cell.

    A disc of radius 2R can hold many copies of a long thin P, but the
    lattice bounds them too.  A point x of the cell of s is no farther
    from s than from s +- b1 and s +- b2, which puts the lattice
    coordinates of x - s in [-1, 1] for a reduced basis (|b1 . b2| <=
    |b1|^2 / 2, |b1| <= |b2|).  A site t cuts the cell at a point of both
    cells, so t - s lies in [-2, 2]^2.  For a point of P and a site of its
    ball the inequalities hold only to within eps, which adds the slack
    terms below.
    """
    g = math.isqrt(len(sites) - 1) + 1
    t = np.arange(g) / g
    probes = np.c_[np.repeat(t, g), np.tile(t, g)] @ basis
    coef = np.linalg.solve(basis.T, sites.T).T
    ring = coef + RING[:, None]
    near = np.all(np.abs(ring - 0.5) <= 0.5 + 2.0 / g, axis=2)
    d, _ = cKDTree((sites + (RING @ basis)[:, None])[near]).query(probes)
    r = d.max() + max(np.hypot(*(basis[0] + basis[1])),
                      np.hypot(*(basis[0] - basis[1]))) / (2 * g)
    # the margin in lattice coordinates: the distance bound over the width
    # of P across the other basis vector, or the lattice bound
    lengths = np.hypot(*basis.T)
    det = abs(basis[0, 0] * basis[1, 1] - basis[0, 1] * basis[1, 0])
    slack = eps * (r + eps + lengths + eps / 2) / lengths ** 2
    margin = np.minimum((r + max(r, eps)) * lengths[::-1] / det,
                        2.0 + (4.0 * slack + 2.0 * slack[::-1]) / 3.0)
    i, j = np.ceil(margin).astype(int)
    offs = np.array([(0, 0)] + [(x, y) for x in range(-i, i + 1)
                                for y in range(-j, j + 1) if x or y])
    coef = coef + offs[:, None]
    keep = np.all((coef >= -margin) & (coef <= 1.0 + margin), axis=2)
    at, owner = np.nonzero(keep)
    return (sites + (offs @ basis)[:, None])[keep], owner, offs[at]


def _cell_shapes(vor: Voronoi, sites: np.ndarray, eps: float) -> tuple:
    """(shape rank of each central site's Voronoi cell, the shapes in rank
    order).  A shape lists the cell's vertices relative to its site as
    quantized (x id, y id) pairs, counterclockwise from the least one."""
    m = len(sites)
    regions = [vor.regions[r] for r in vor.point_region[:m].tolist()]
    sizes = np.fromiter(map(len, regions), int, m)
    verts = np.fromiter(chain.from_iterable(regions), int, int(sizes.sum()))
    if not sizes.all() or (verts < 0).any():
        raise Stalled("central torus cell is unbounded")
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
                        eps: float = TORUS_EPS) -> tuple:
    """Condense a labeled torus set to a coset of its translation symmetry.

    Returns (indices into the input, keys).  Every pruning decision is
    recorded as a count/rank key, so two runs on translation-congruent
    inputs emit identical key lists and keep identical index subsets (up
    to the translation).  The returned subset is a single orbit of the
    symmetry group: the difference of any member with any member of a
    congruent run's result is a valid candidate translation.

    The rounds run on one representative per orbit of the period lattice
    of :func:`_period_lattice`, its least input index, placed in the
    lattice's fundamental parallelogram.  Their keys are those of the
    full torus with counts multiplied by the lattice index, and the
    indices returned are every input index whose representative survives,
    ascending: T1 keeps the rarest label class, T3 the rarest Voronoi cell
    shape until no shape splits off, and T5 ranks each site's word, the
    (offset, label) rows of the points in whose nearest-site ball it
    lies, and repeats from T1 on the sites with the word ranks as labels
    until all words are equal.
    """
    pos = wrap_angle(np.asarray(positions, dtype=float).reshape(-1, 2))
    if len(pos) != len(labels):
        raise ValueError("label count does not match point count")
    if len(pos) == 0:
        raise ValueError("empty torus set")
    lab_rank = joint_ranks(labels)[1]
    q, lattice, orbit = _period_lattice(pos, lab_rank, eps)
    reps = np.unique(orbit, return_index=True)[1]
    index, basis = len(pos) // len(reps), lattice * (TWO_PI / q)
    cur_pos = pos[reps] - np.floor(np.linalg.solve(basis.T, pos[reps].T).T) @ basis
    cur_labs, orig, keys = lab_rank[reps], np.arange(len(reps)), []

    def survivors(cand: np.ndarray) -> np.ndarray:
        keep = np.zeros(len(reps), dtype=bool)
        keep[orig[cand]] = True
        return np.flatnonzero(keep[orbit])

    while True:
        # cur_labs are dense ranks: each label class keeps a representative
        pr = prune_by_key(cur_labs)
        keys.append(("T1", tuple((k, c * index) for k, c in pr.histogram)))
        cand = pr.indices
        if len(cand) * index == 1:
            keys.append(("T", 1))
            return survivors(cand), keys

        while True:
            sites = cur_pos[cand]
            copies, owner, offs = _lattice_copies(sites, basis, eps)
            # Q12: a wide merge of nearly cocircular sites is no error
            vor = Voronoi(copies, qhull_options="Qbb Qc Qz Q12")
            ranks, shapes = _cell_shapes(vor, sites, eps)
            spr = prune_by_key(ranks)
            keys.append(("T3", tuple((shapes[r], c * index)
                                     for r, c in spr.histogram)))
            if not spr.progressed:
                break
            cand = cand[spr.indices]
            if len(cand) * index == 1:
                keys.append(("T", 1))
                return survivors(cand), keys

        m, n = len(sites), len(cur_pos)
        tree = cKDTree(copies)
        d, _ = tree.query(cur_pos)
        balls = tree.query_ball_point(cur_pos, d + eps)
        lens = np.fromiter(map(len, balls), int, n)
        hit, pt = np.concatenate(balls), np.repeat(np.arange(n), lens)
        # one (site, point) row per torus site in a point's ball: a copy
        # is its owner moved by a lattice vector, taken modulo 2pi Z^2
        mod = np.mod(offs[hit] @ lattice, q)
        torus_site = (owner[hit] * q + mod[:, 0]) * q + mod[:, 1]
        first = np.unique(torus_site * n + pt, return_index=True)[1]
        hit, pt = hit[first], pt[first]
        site = owner[hit]
        w = cur_pos[pt] - copies[hit]
        rows = np.c_[circular_cluster(w[:, 0], eps).ids,
                     circular_cluster(w[:, 1], eps).ids,
                     cur_labs[pt]]
        # a site's word: its (x id, y id, label) rows sorted, as one int row
        rows = rows[np.lexsort(np.c_[site, rows].T[::-1])]
        ranks = joint_ranks(padded_rows(
            rows.ravel(), 3 * np.bincount(site, minlength=m)))[1]
        keys.append(("T5", tuple((k, c * index)
                                 for k, c in prune_by_key(ranks).histogram)))
        if ranks.max() == 0:
            keys.append(("T", len(cand) * index))
            return survivors(cand), keys
        orig = orig[cand]
        cur_pos, cur_labs = cur_pos[cand], ranks


def torus_translation_congruent(pos_a: np.ndarray, labels_a: Sequence,
                                pos_b: np.ndarray, labels_b: Sequence,
                                eps: float = TORUS_EPS) -> Optional[np.ndarray]:
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
    vtol = match_tol(eps)
    ea, eb = (np.stack([np.cos(x), np.sin(x)], axis=2).reshape(-1, 4)
              for x in (shifted, pb))
    if match_multisets(ea, eb, vtol, labels_a, labels_b):
        return t
    return None


def _block_match(ac: np.ndarray, la: np.ndarray, bc: np.ndarray,
                 lb: np.ndarray, eps: float) -> Optional[np.ndarray]:
    """The block rotation that maps the coordinate set ac, with joint label
    ranks la, onto bc, or None.

    Points are classed once by their two plane radii: origin, plane-1
    circle, plane-2 circle or torus point.  One loop over the planes then
    takes each plane's turn from :func:`labeled_rotation` when there are
    no torus points, or else adds its radius ids and axis offset ids to the
    torus labels (label, r1 id, r2 id, offset 1, offset 2); a plane with no
    circle points gives offsets 0.
    """
    tol = radius_tol(eps)
    n, c = len(ac), np.r_[ac, bc]
    a, b = slice(None, n), slice(n, None)
    rad = np.hypot(c[:, 0::2], c[:, 1::2])
    ang = wrap_angle(np.arctan2(c[:, 1::2], c[:, 0::2]))
    # 0 origin, 1 plane-1 circle, 2 plane-2 circle, 3 torus point
    cls = (rad > tol) @ [1, 2]
    if not (np.array_equal(np.bincount(cls[a], minlength=4),
                           np.bincount(cls[b], minlength=4))
            and np.array_equal(np.sort(la[cls[a] == 0]),
                               np.sort(lb[cls[b] == 0]))):
        return None
    tor = cls == 3
    turns, rows = np.eye(4), np.zeros((len(c), 5), dtype=int)
    rows[:, 0] = np.r_[la, lb]
    for p in (0, 1):
        plane = slice(2 * p, 2 * p + 2)
        if not tor.any():
            s = labeled_rotation(ac[:, plane], la, bc[:, plane], lb, tol)
            if s is None:
                return None
            turns[plane, plane] = s
            continue
        rows[:, 1 + p] = tolerance_cluster(rad[:, p], tol).ids
        on = cls == p + 1
        if on.any():
            keys = rows[:, [0, 1 + p]]
            _, ka, kb = joint_ranks(keys[a][on[a]], keys[b][on[b]])
            axes = circle_axes(ang[a, p][on[a]], ka, ang[b, p][on[b]], kb, tol)
            if axes is None:
                return None
            base = np.repeat(axes[:2], [n, len(bc)])
            rows[tor, 3 + p] = circular_cluster((ang[:, p] - base)[tor], tol,
                                                axes[2]).ids
    if not tor.any():
        return turns
    t = torus_translation_congruent(ang[a][tor[a]], rows[a][tor[a]],
                                    ang[b][tor[b]], rows[b][tor[b]], tol)
    return None if t is None else block_rotation(*t)


def two_plus_two_reduce(set_a: PointSet4, set_b: PointSet4,
                        plane_a: np.ndarray, plane_b: np.ndarray,
                        eps: float = EPS_EQ) -> Verdict:
    """Decide congruence of two normalized 4D sets given that any congruence
    maps plane_a onto plane_b, orthonormal (2, 4) bases (and so the
    orthocomplements onto each other).

    In adapted coordinates the unknown map is block 2x2 + 2x2 with both
    blocks orthogonal and determinant +1 overall: either two rotations, or
    two reflections, which SWAP_PLANES, a fixed reflection of both planes,
    turns back into rotations.  For each case :func:`_block_match` gives
    the one candidate block rotation, which is verified on the input.
    """
    fa, fb = frames(np.stack([plane_a, plane_b]))[0]
    ac0 = set_a.points @ fa.T
    bc = set_b.points @ fb.T
    la, lb = rank_labels(set_a.labels, set_b.labels)

    for swapped in (False, True):
        ac = ac0 @ SWAP_PLANES if swapped else ac0
        m = _block_match(ac, la, bc, lb, eps)
        if m is None:
            continue
        if swapped:
            m = m @ SWAP_PLANES
        r = fb.T @ m @ fa
        if verify_rotation(set_a, set_b, r):
            return Verdict.yes(r, np.zeros(4))
    return Verdict.no("plane pair alignment")
