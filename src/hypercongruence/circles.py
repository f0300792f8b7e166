"""Turning structured closest-pair graphs into great circles or fewer points.

The pruning loop ends in one of two structured situations besides plain
separation.  A mirror-symmetric graph is an orbit of a reflection group;
its components are either eccentric (condense to their centroids), regular
polygons (their circumcircles), three-dimensional (two antipodal normal
points), toroidal grids (two orthogonal great circles each), or other
full-dimensional sets (the anchors of a 1+3 reduction).  An
edge-transitive graph decomposes into orbit cycles of a single rotation
each; every cycle yields the invariant great circle in which the rotation
turns by its smaller angle.

Both paths emit stage keys for the lockstep comparison and are equivariant:
a rotation of the input rotates the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import (EPS_EQ, CONSTANTS, PlaneSpan, DegenerateRotationError,
                   complete_basis, decompose_rotation, gram_schmidt)
from .condense import TWO_PI, component_ids, is_regular_polygon, members_by_id
from .iterprune import THETA_TOL, DirectedGraph, ps_figures


@dataclass
class CondensedPoints:
    """Replacement point set produced by the mirror reduction."""

    points: np.ndarray


class Anchors:
    """Marks that mirror_reduce's input points are to be the anchors of a
    1+3 reduction; the class name is what the 'mirror' trace key records."""


@dataclass
class GreatCircles:
    """A family of great circles through the origin."""

    circles: list


@dataclass
class OrbitCycle:
    """A cyclic path that is the orbit of its first vertex under a rotation.

    ``circle`` spans the invariant plane in which the rotation turns by the
    smaller of its two angles.
    """

    vertices: tuple
    rotation: np.ndarray
    circle: PlaneSpan


# ---------------------------------------------------------------------------
# reflection-group case


def _components(n: int, undirected_edges) -> list:
    # only vertices on an edge belong to the graph
    groups = members_by_id(component_ids(n, list(undirected_edges)))
    return [g.tolist() for g in groups if len(g) > 1]


def _trace_cycle(adj: dict, comp) -> list:
    """Vertex order of a single cycle component (every degree is 2)."""
    start = min(comp)
    order = [start]
    prev, cur = None, start
    while True:
        step = min(w for w in adj[cur] if w != prev) if prev is not None \
            else min(adj[cur])
        if step == start:
            break
        order.append(step)
        prev, cur = cur, step
    if len(order) != len(comp):
        raise AssertionError("degree-2 component is not a single cycle")
    return order


def _step_error(orbit: np.ndarray, rot: np.ndarray) -> float:
    """Largest coordinate error of rot as the map to the next orbit point."""
    return float(np.max(np.abs(orbit @ rot.T - np.roll(orbit, -1, axis=0))))


def _cycle_rotation(pts: np.ndarray, order: list, eps: float) -> np.ndarray:
    """The rotation advancing a cycle one step, fitted from spread triples."""
    ell = len(order)
    m = max(1, ell // 3)
    orbit = pts[order]
    for shift in range(min(ell, 8)):
        tmpl = [order[(shift + j * m) % ell] for j in range(3)]
        targ = [order[(shift + j * m + 1) % ell] for j in range(3)]
        try:
            rot = fit_rotation(pts[tmpl], pts[targ], eps)
        except ValueError:
            continue
        if _step_error(orbit, rot) <= 1e-7:
            return rot
    raise AssertionError("no step rotation advances the mirror cycle")


def _grid_leg_pairs(legs: np.ndarray):
    """The pairs of the four legs at a toroidal grid vertex that span its two
    grid circles, or None when the legs do not split two against two by
    orthogonality."""
    unit = legs / np.linalg.norm(legs, axis=1, keepdims=True)
    dots = np.abs(unit @ unit.T)
    np.fill_diagonal(dots, 0.0)
    mates = [[j for j in range(4) if dots[i, j] > 1e-7] for i in range(4)]
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
    """Condense a mirror-symmetric graph; returns (result, stage_keys).

    The result is CondensedPoints (components had eccentric centroids, or
    were three-dimensional and got replaced by their antipodal hyperplane
    normals), GreatCircles (regular polygons, toroidal grids or fine orbit
    cycles) or Anchors (full-dimensional components of any other kind).
    """
    pts = np.asarray(points, dtype=float)
    keys: list = []
    edges = {(min(a), max(a)) for a in graph.arcs}
    comps = _components(len(pts), edges)
    sizes = tuple(sorted(len(c) for c in comps))
    keys.append(("R1", (len(comps), sizes)))

    centers = np.array([pts[c].mean(axis=0) for c in comps])
    if np.max(np.linalg.norm(centers, axis=1)) > 1e-7:
        keys.append(("R2", "eccentric"))
        return CondensedPoints(centers), keys
    keys.append(("R2", "centered"))

    ranks = []
    svds = []
    for c in comps:
        _, s, vt = np.linalg.svd(pts[c], full_matrices=False)
        if vt.shape[0] < 4:
            vt = complete_basis(vt)
        ranks.append(int(np.sum(s > 1e-7 * s[0])))
        svds.append(vt)
    if len(set(ranks)) != 1:
        raise AssertionError("components of a mirror-symmetric graph must "
                             "be congruent, got mixed ranks")
    rank = ranks[0]
    keys.append(("R-rank", rank))

    if rank == 2:
        circles = []
        ks = set()
        for c, vt in zip(comps, svds):
            e1, e2 = vt[0], vt[1]
            if not is_regular_polygon(np.arctan2(pts[c] @ e2, pts[c] @ e1), 1e-7):
                raise AssertionError("planar component is not a regular polygon")
            ks.add(len(c))
            circles.append(PlaneSpan.from_vectors(e1, e2))
        keys.append(("R3", tuple(sorted(ks))))
        return GreatCircles(sorted(circles, key=lambda p: p.key())), keys

    if rank == 3:
        normals = []
        for vt in svds:
            n = vt[3]
            normals.append(n)
            normals.append(-n)
        keys.append(("R4", len(normals)))
        return CondensedPoints(np.array(normals)), keys

    # rank 4: toroidal grids (two orthogonal edge classes each), or closed
    # orbit cycles sampled so finely that their chirality defect fell below
    # the mirror tolerance
    circles = []
    adj = {v: set() for e in edges for v in e}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    if all(len(adj[v]) == 2 for c in comps for v in c):
        lens = []
        for c in comps:
            order = _trace_cycle(adj, c)
            rot = _cycle_rotation(pts, order, eps)
            dec = decompose_rotation(rot, eps)
            if dec.isoclinic:
                raise AssertionError("isoclinic mirror cycle should have "
                                     "been planar")
            circles.append(dec.planes[0])
            lens.append(len(order))
        keys.append(("R5", ("cycles", tuple(sorted(lens)))))
        return GreatCircles(sorted(circles, key=lambda p: p.key())), keys
    for c in comps:
        u = min(c)
        nbrs = sorted(adj[u])
        legs = pts[nbrs] - pts[u]
        pairs = _grid_leg_pairs(legs) if len(nbrs) == 4 else None
        if pairs is None:
            # not a toroidal grid (the vertex figure of a regular polytope,
            # say): any congruence maps these points onto the other side's,
            # so they serve as the anchors of a 1+3 reduction
            keys.append(("R5", ("anchors", len(pts))))
            return Anchors(), keys
        circles.extend(PlaneSpan.from_vectors(legs[i], legs[j])
                       for i, j in sorted(pairs))
    keys.append(("R5", len(circles)))
    return GreatCircles(sorted(circles, key=lambda p: p.key())), keys


# ---------------------------------------------------------------------------
# orbit-cycle case


def fit_rotation(template, target, eps: float = EPS_EQ) -> np.ndarray:
    """The unique rotation mapping one 3-point frame onto another.

    Both triples must span a 3-dimensional subspace together with the
    origin (three points not on a common great circle); the target must be
    congruent to the template.
    """
    a = np.asarray(template, dtype=float)
    b = np.asarray(target, dtype=float)
    if a.shape != (3, 4) or b.shape != (3, 4):
        raise ValueError("expected two 3x4 point triples")
    rows_a = gram_schmidt(a, eps=1e-9)
    rows_b = gram_schmidt(b, eps=1e-9)
    if rows_a is None or rows_b is None:
        raise ValueError("triple lies on a great circle, rotation not unique")
    r = complete_basis(rows_b).T @ complete_basis(rows_a)
    if np.max(np.abs(a @ r.T - b)) > max(eps, 1e-9) * 10:
        raise ValueError("target triple is not congruent to the template")
    return r


def orbit_circles(points, graph: DirectedGraph, delta: float, alpha: float,
                  tau0: float, eps: float = EPS_EQ):
    """Trace all orbit cycles of an edge-transitive graph.

    Every triple (a1, a2, a3) with a2a3 a successor of a1a2 starts a unique
    cycle in which consecutive quadruples all share the anchor torsion
    tau0.  Cycles are traced once (the step map is a permutation of the
    triples) and deduplicated by vertex set.  Returns (cycles, stage_keys).
    """
    pts = np.asarray(points, dtype=float)
    figures = ps_figures(pts, graph, delta, alpha)
    succ_pos: dict = {}
    pred_pos: dict = {}
    for a, fig in figures.items():
        succ_pos[a] = {arc: i for i, arc in enumerate(fig.succ_at)
                       if arc is not None}
        pred_pos[a] = {arc: i for i, arc in enumerate(fig.pred_at)
                       if arc is not None}

    def next_arc(prev, cur):
        fig = figures[cur]
        ti = pred_pos[cur].get(prev)
        if ti is None:
            raise AssertionError("traced arc lost its predecessor mark")
        hits = []
        for arc, j in succ_pos[cur].items():
            tau = (fig.thetas[j] - fig.thetas[ti]) % TWO_PI
            d = abs(tau - tau0)
            if min(d, TWO_PI - d) <= THETA_TOL:
                hits.append(arc)
        if len(hits) != 1:
            raise AssertionError(f"torsion anchor hit {len(hits)} successors")
        return hits[0]

    visited: set = set()
    cycles: list = []
    by_vertex_set: dict = {}
    n = len(pts)
    for a in sorted(graph.arcs):
        for b in graph.succ[a]:
            if (a, b) in visited:
                continue
            states = []
            state = (a, b)
            while True:
                if state in visited:
                    raise AssertionError("orbit trace crossed another cycle")
                states.append(state)
                visited.add(state)
                nxt = next_arc(*state)
                state = (state[1], nxt)
                if state == (a, b):
                    break
                if len(states) > n:
                    raise AssertionError("orbit cycle failed to close "
                                         "within the point count")
            verts = tuple(s[0][0] for s in states)
            if len(set(verts)) != len(verts):
                raise AssertionError("orbit cycle revisits a vertex")
            key = frozenset(verts)
            if key in by_vertex_set:
                continue
            ell = len(verts)
            rot = fit_rotation(pts[list(verts[:3])],
                               pts[[verts[1], verts[2], verts[3 % ell]]], eps)
            err = _step_error(pts[list(verts)], rot)
            if err > 1e-7:
                raise AssertionError("fitted rotation does not advance the "
                                     f"cycle (error {err:.2g})")
            try:
                dec = decompose_rotation(rot, eps)
            except DegenerateRotationError as exc:
                raise AssertionError("orbit rotation is degenerate") from exc
            if dec.isoclinic:
                raise AssertionError("orbit rotation is isoclinic, points "
                                     "would be concyclic")
            if abs(dec.angles[0]) <= 1e-9:
                raise AssertionError("orbit rotation fixes a plane pointwise")
            cycles.append(OrbitCycle(verts, rot, dec.planes[0]))
            by_vertex_set[key] = cycles[-1]
    lengths = tuple(sorted(len(c.vertices) for c in cycles))
    keys = [("O", (len(cycles), lengths))]
    if delta <= CONSTANTS.delta0 and len(cycles) > len(pts) / CONSTANTS.circle_factor:
        raise AssertionError("more orbit cycles than the packing bound allows")
    return cycles, keys
