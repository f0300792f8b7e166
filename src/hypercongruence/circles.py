"""Turning structured closest-pair graphs into great circles or fewer points.

The pruning loop ends in one of two structured situations besides plain
separation.  A mirror-symmetric graph is an orbit of a reflection group;
its components are either eccentric (condense to their centroids), planar
(the great circles they span), three-dimensional (two antipodal normal
points), toroidal grids (two orthogonal great circles each), orbit cycles
sampled finer than the mirror tolerance, or other full-dimensional sets
(the anchors of a 1+3 reduction).  An edge-transitive graph decomposes
into orbit cycles of a single rotation each.  On either path every orbit
cycle yields the invariant great circle in which its step rotation turns
by the smaller angle; :func:`cycle_circle` fits that rotation over the
whole cycle by orthogonal Procrustes and reads the circle off its complex
eigenvectors.

:func:`mirror_reduce` yields its stage keys, :func:`orbit_circles` returns
its one; both are equivariant: a rotation of the input rotates the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import (EPS_EQ, CENTROID_TOL, FIT_TOL, FIXED_ANGLE_TOL,
                   ORTHOGONAL_TOL, RANK_RATIO, SPAN_EPS, THETA_TOL, Stalled,
                   frames, pluecker_sorted)
from .condense import TWO_PI, component_ids, members_by_id
from .iterprune import DirectedGraph, EdgeTransitive


@dataclass
class CondensedPoints:
    """Replacement point set produced by the mirror reduction."""

    points: np.ndarray


class Anchors:
    """Marks that mirror_reduce's input points are to be the anchors of a
    1+3 reduction; the class name is what the 'mirror' trace key records."""


@dataclass
class GreatCircles:
    """A family of great circles through the origin: an (m, 2, 4) stack of
    orthonormal bases in Pluecker order."""

    circles: np.ndarray


@dataclass
class OrbitCycle:
    """A cyclic path that is the orbit of its first vertex under a rotation.

    ``circle``, an orthonormal (2, 4) basis, spans the invariant plane in
    which the rotation turns by the smaller of its two angles.
    """

    vertices: tuple
    circle: np.ndarray


# ---------------------------------------------------------------------------
# reflection-group case


def _walk_cycles(step: np.ndarray, tails: np.ndarray) -> list:
    """The vertex lists of the cycles of the permutation step of states,
    each walked once from its least state and read off the tails of its
    states; a cycle with the vertex set of an earlier one is dropped."""
    step, tails = step.tolist(), tails.tolist()
    walked = [False] * len(step)
    cycles: dict = {}
    for first in range(len(step)):
        verts, p = [], first
        while not walked[p]:
            walked[p] = True
            verts.append(tails[p])
            p = step[p]
        if len(set(verts)) != len(verts):
            raise Stalled("orbit cycle revisits a vertex")
        if verts:
            cycles.setdefault(frozenset(verts), verts)
    return list(cycles.values())


def _step_error(orbit: np.ndarray, rot: np.ndarray) -> float:
    """Largest coordinate error of rot as the map to the next orbit point."""
    return float(np.max(np.abs(orbit @ rot.T - np.roll(orbit, -1, axis=0))))


def _spans(vectors) -> np.ndarray:
    """Orthonormal bases of the planes of an (m, 2, 4) stack of vector pairs."""
    return frames(np.reshape(vectors, (-1, 2, 4)), SPAN_EPS)[0][:, :2]


def cycle_circle(points, order, eps: float = EPS_EQ) -> np.ndarray:
    """The invariant great circle of a closed orbit cycle.

    ``points[order]`` is the cycle; its step rotation maps every point to
    the next.  The rotation is the orthogonal Procrustes fit over all the
    (point, next point) pairs of the cycle (Schoenemann 1966), unique
    unless the cycle lies on one great circle.  The circle is the plane in
    which it turns by the smaller angle, spanned by the real and imaginary
    parts of the eigenvector whose eigenvalue has the smallest argument,
    as a (2, 4) basis.
    """
    orbit = np.asarray(points, dtype=float)[list(order)]
    u, s, vt = np.linalg.svd(np.roll(orbit, -1, axis=0).T @ orbit)
    if np.linalg.det(u @ vt) < 0:
        u[:, -1] = -u[:, -1]
    rot = u @ vt
    err = _step_error(orbit, rot)
    if err > FIT_TOL:
        raise Stalled("fitted rotation does not advance the "
                      f"cycle (error {err:.2g})")
    vals, vecs = np.linalg.eig(rot)
    args = np.abs(np.angle(vals))
    # a concyclic cycle leaves the fit free off its circle (rank 2)
    if args.max() - args.min() <= eps or s[2] <= RANK_RATIO * s[0]:
        raise Stalled("orbit rotation is isoclinic, points would be concyclic")
    if args.min() <= FIXED_ANGLE_TOL:
        raise Stalled("orbit rotation fixes a plane pointwise")
    v = vecs[:, np.argmin(args)]
    return _spans([v.real, v.imag])[0]


def _grid_leg_pairs(legs: np.ndarray):
    """The pairs of the four legs at a toroidal grid vertex that span its two
    grid circles, or None when the legs do not split two against two by
    orthogonality."""
    unit = legs / np.linalg.norm(legs, axis=1, keepdims=True)
    dots = np.abs(unit @ unit.T)
    np.fill_diagonal(dots, 0.0)
    mates = [np.flatnonzero(row > ORTHOGONAL_TOL).tolist() for row in dots]
    counts = sorted(len(m) for m in mates)
    if counts == [1, 1, 1, 1]:
        return {tuple(sorted((i, mates[i][0]))) for i in range(4)}
    if counts == [0, 0, 1, 1]:
        # one grid circle is a square, its legs look orthogonal too;
        # pair the non-square legs directly, the rest by elimination
        i, j = (k for k in range(4) if mates[k])
        return {(i, j), tuple(k for k in range(4) if k not in (i, j))}
    if counts == [0, 0, 0, 0]:
        # both grid circles are squares of equal radius (a 4-cube orbit):
        # the splitting is genuinely ambiguous, and the three candidate
        # splittings form one symmetry orbit, so emit them all
        return {(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)}
    return None


def mirror_reduce(points, graph: DirectedGraph, eps: float = EPS_EQ):
    """Condense a mirror-symmetric graph, yielding (stage, key) pairs.

    It returns CondensedPoints (components had eccentric centroids, or
    were three-dimensional and got replaced by their antipodal hyperplane
    normals), GreatCircles (planar components, toroidal grids or fine
    orbit cycles) or Anchors (full-dimensional components of any other kind).
    """
    pts = np.asarray(points, dtype=float)
    # one graph over both directions of every arc serves the components,
    # the degree test, the cycle walk and the grid legs
    n = len(pts)
    tail, head = graph.arc_rows.T
    sym = DirectedGraph(n, np.stack(np.divmod(
        np.unique(np.r_[tail * n + head, head * n + tail]), n), axis=1))
    # only vertices on an edge belong to the graph
    comps = [g.tolist() for g in members_by_id(component_ids(n, sym.arc_rows))
             if len(g) > 1]
    yield "R1", (len(comps), tuple(sorted(map(len, comps))))

    centers = np.array([pts[c].mean(axis=0) for c in comps])
    if np.max(np.linalg.norm(centers, axis=1)) > CENTROID_TOL:
        yield "R2", "eccentric"
        return CondensedPoints(centers)
    yield "R2", "centered"

    # every component is centered, so rank 3 needs four points and its
    # normal vt[3] exists; rank 2 reads only vt[0] and vt[1]
    svds = [np.linalg.svd(pts[c], full_matrices=False)[1:] for c in comps]
    ranks = {int(np.sum(s > RANK_RATIO * s[0])) for s, _ in svds}
    if len(ranks) != 1:
        raise Stalled("components of a mirror-symmetric graph must "
                      "be congruent, got mixed ranks")
    rank = ranks.pop()
    yield "R-rank", rank

    if rank == 2:
        yield "R3", tuple(sorted({len(c) for c in comps}))
        return GreatCircles(pluecker_sorted(_spans([v[:2] for _, v in svds])))

    if rank == 3:
        normals = [x for _, vt in svds for x in (vt[3], -vt[3])]
        yield "R4", len(normals)
        return CondensedPoints(np.array(normals))

    # rank 4: toroidal grids (two orthogonal edge classes each), or closed
    # orbit cycles sampled so finely that their chirality defect fell below
    # the mirror tolerance
    circles = []
    deg = np.bincount(sym.arc_rows[:, 0], minlength=n)
    if (deg[deg > 0] == 2).all():
        # arc u->v steps to v->w, w != u; walks leave each cycle's least
        # vertex towards its smaller neighbour first, as arcs sort so
        tail, head = sym.arc_rows.T
        out = np.searchsorted(tail, head)
        cycles = _walk_cycles(out + (head[out] == tail), tail)
        circles = [cycle_circle(pts, c, eps) for c in cycles]
        yield "R5", ("cycles", tuple(sorted(map(len, cycles))))
        return GreatCircles(pluecker_sorted(circles))
    for c in comps:
        u = min(c)
        nbrs = sym.out_rows(u)[:, 1]
        legs = pts[nbrs] - pts[u]
        pairs = _grid_leg_pairs(legs) if len(nbrs) == 4 else None
        if pairs is None:
            # not a toroidal grid (the vertex figure of a regular polytope,
            # say): any congruence maps these points onto the other side's,
            # so they serve as the anchors of a 1+3 reduction
            yield "R5", ("anchors", len(pts))
            return Anchors()
        circles.extend(legs[[i, j]] for i, j in sorted(pairs))
    yield "R5", len(circles)
    return GreatCircles(pluecker_sorted(_spans(circles)))


# ---------------------------------------------------------------------------
# orbit-cycle case


def orbit_circles(ex: EdgeTransitive, eps: float = EPS_EQ):
    """Trace all orbit cycles of an edge-transitive graph.

    A state is a successor pair (a1a2, a2a3) of the exit.  It steps to the
    pair (a2a3, a3a4) whose successor sits at the anchor torsion tau0 from
    the predecessor mark of a1a2 on the mark figure of a2a3, so the
    consecutive quadruples of a cycle all share tau0.  The step map over
    all pairs is computed once from the exit's mark figures and must be a
    permutation; each of its cycles is walked once, from its smallest pair,
    and the cycles are deduplicated by vertex set.  Returns (cycles,
    stage_keys).
    """
    pts = np.asarray(ex.points, dtype=float)
    arcs, succ, figs = ex.graph.arc_rows, ex.succ, ex.figures
    m = len(arcs)
    # every pair against the positions on the figure of its successor: the
    # predecessor mark of its arc, and the successor marks at torsion tau0
    pair, j = figs.join(succ[:, 1])
    is_pred = figs.pred[j] == succ[pair, 0]
    if (np.bincount(pair[is_pred], minlength=len(succ)) != 1).any():
        raise Stalled("traced arc lost its predecessor mark")
    tau = (figs.theta[j] - figs.theta[j[is_pred]][pair]) % TWO_PI
    d = np.abs(tau - ex.tau0)
    hit = (figs.succ[j] >= 0) & (np.minimum(d, TWO_PI - d) <= THETA_TOL)
    counts = np.bincount(pair[hit], minlength=len(succ))
    if (counts != 1).any():
        raise Stalled(f"torsion anchor hit {counts[counts != 1][0]} "
                      "successors")
    step = np.searchsorted(succ[:, 0] * m + succ[:, 1],
                           succ[:, 1] * m + figs.succ[j[hit]])
    if len(np.unique(step)) != len(step):
        raise Stalled("orbit trace crossed another cycle")

    cycles = [OrbitCycle(tuple(v), cycle_circle(pts, v, eps))
              for v in _walk_cycles(step, arcs[succ[:, 0], 0])]
    lengths = tuple(sorted(len(c.vertices) for c in cycles))
    return cycles, [("O", (len(cycles), lengths))]
