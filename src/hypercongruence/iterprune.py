"""Iterative structure pruning of closest-pair graphs on the 3-sphere.

Starting from the closest-pair graph of a set on the unit sphere, the
pruning loop repeatedly discards vertices whose directed degrees are rare,
arcs whose directed edge figures are rare, and successor arcs not selected
by canonical axes, until one of three stable situations is reached:

* the closest-pair distance exceeds the separation threshold, so the
  surviving set is small enough for anchored dimension reduction,
* all directed edge figures are congruent and mirror symmetric,
* the arc set is edge transitive with two regular mark polygons, which
  hands over to orbit-cycle extraction.

Decisions are made on quantized invariants (tolerance-clustered angles and
frame coordinates), so congruent inputs run through identical stages.  The
loop is a generator of stage keys (:func:`prune_steps`): it yields one
(stage, key) pair per decision and returns the exit, so a caller can run
two sets in lockstep and stop both at the first key that differs (the
mirror reduction and the marking have the same shape); :func:`run_steps`
runs one to its end.  Arcs travel as one sorted int array, and everything
else about them as int arrays indexed by arc row: successor pairs are
(arc, successor arc) rows, and the mark figures of all arcs are one table
of circle positions.  The circle parts of all figures of a round go to
:mod:`condense` laid end to end, with a length per arc, and their codes
come back as int rows.  Codes are ranked among those of the round's graph,
so ranks compare within one graph only; the C4 and C9 keys are their
histograms, which congruent inputs share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import (EPS_EQ, ALPHA_POINT_TOL, AXIS_TOL, CONSTANTS, FRAME_EPS,
                   MIRROR_TOL, POINT_RADIUS, SPAN_EPS, THETA_TOL, Stalled,
                   frames, match_multisets)
from .condense import (TWO_PI, canonical_axes, circular_cluster,
                       is_regular_polygon, joint_ranks, padded_rows,
                       prune_by_key, tolerance_cluster, wrap_angle)
from .cpgraph import closest_pair_graph


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Arcs (ordered index pairs) over a point set.

    ``arc_rows`` holds the arcs as an (m, 2) int array of distinct
    (tail, head) rows in lexicographic order; row subsets of a sorted array
    stay sorted.
    """

    n: int
    arc_rows: np.ndarray

    def out_rows(self, v) -> np.ndarray:
        """The arcs out of v as rows, by head."""
        return self.arc_rows[self.arc_rows[:, 0] == v]

    def in_rows(self, v) -> np.ndarray:
        """The arcs into v as rows, by tail."""
        return self.arc_rows[self.arc_rows[:, 1] == v]

    def degrees(self) -> np.ndarray:
        """(out-degree, in-degree) row of every vertex."""
        return np.c_[np.bincount(self.arc_rows[:, 0], minlength=self.n),
                     np.bincount(self.arc_rows[:, 1], minlength=self.n)]


@dataclass
class WellSeparated:
    points: np.ndarray


@dataclass
class MirrorSymmetric:
    points: np.ndarray
    graph: DirectedGraph


@dataclass
class EdgeTransitive:
    points: np.ndarray
    graph: DirectedGraph
    succ: np.ndarray            # final (arc, successor) row pairs
    figures: "MarkFigures"      # the mark figures of those pairs
    delta: float
    alpha: float
    tau0: float


def _dot(x, y) -> np.ndarray:
    """Row-wise dot products over the last axis."""
    return np.einsum("...k,...k->...", x, y)


def _reflect_across_bisector(x, u, v):
    """Reflect the rows x across the hyperplanes of points equidistant from
    u and v (rows as well, or single points)."""
    d = v - u
    return x - (2.0 * _dot(x, d) / _dot(d, d))[..., None] * d


# ---------------------------------------------------------------------------
# figure codes


def _blocks(sizes: np.ndarray, which: np.ndarray) -> tuple:
    """(k, i) for every index i in block which[k], k ascending, where the
    blocks are consecutive index ranges of the given sizes."""
    counts = sizes[which]
    owner = np.repeat(np.arange(len(which)), counts)
    shift = (np.cumsum(sizes) - sizes)[which] - (np.cumsum(counts) - counts)
    return owner, np.arange(len(owner)) + np.repeat(shift, counts)


def _sort_runs(tokens: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Non-negative int tokens sorted within each run of equal owner, for
    owners in ascending order."""
    shift = owner * (int(tokens.max(initial=0)) + 1)
    return np.sort(tokens + shift) - shift


def edge_figure_codes(points, graph: DirectedGraph,
                      eps: float = EPS_EQ) -> np.ndarray:
    """Rank of the canonical code of every arc (in ``graph.arc_rows`` order)
    among the distinct codes of the graph, quantized jointly over it.

    The figure of an arc uv holds its tail u, the heads of the arcs out of
    v and the tails of the arcs into u, each tagged with a direction mask
    (1 for u, 2 for out-neighbors of v, 4 for in-neighbors of u; the
    reversed arc vu shows up as bit 2 on u), with v as the origin.  The
    code is the minimum, over base vectors b from the out-neighbors of the
    head, of the sorted string of frame(-v, u - v, b - v) coordinates of
    all figure points with their masks.  Arcs with no such frame (the head
    has no out-neighbor off the plane of 0, u and v) fall back to the
    two-vector frame(-v, u - v): the axial coordinates and the distance
    from the axial plane are clustered, and the angular part around it
    gets one canonical cyclic code.  These planar codes rank above all
    three-vector codes.  All frames of the graph come from one stacked
    :func:`frames` call with a row per variant, b = u for a head with no
    other out-neighbor; a planar arc takes the frame of its first variant,
    whose rows 0-1 are frame(-v, u - v) and whose rows 2-3 its code reads
    only through the distance rho and the rotation-invariant axes code.
    All figure coordinates come from one einsum.
    A code is an int string with one token per figure point, the rank of
    its row of ids and mask, followed for a planar figure by its axes code;
    each is ranked as one row padded with -1 (:func:`padded_rows`), so
    ranks are comparable within one graph only.
    """
    pts = np.asarray(points, dtype=float)
    arcs = graph.arc_rows
    tail, head = arcs.T
    n, n_arcs = len(pts), len(arcs)
    # arcs sorted by tail (by head) put the arcs out of (into) x in a block
    out_arc, out_at = _blocks(np.bincount(tail, minlength=n), head)
    out_pt = head[out_at]
    in_arc, in_at = _blocks(np.bincount(head, minlength=n), tail)
    in_pt = tail[np.lexsort((tail, head))[in_at]]
    from_v = in_pt != head[in_arc]
    # figure points sorted by (arc, point), with their or-ed masks; the
    # three parts are sorted runs, which a stable sort merges
    key = np.concatenate([np.arange(n_arcs) * n + tail, out_arc * n + out_pt,
                          in_arc[from_v] * n + in_pt[from_v]])
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    masks = np.bitwise_or.reduceat(np.repeat(
        [1, 2, 4], [n_arcs, len(out_arc), int(from_v.sum())])[order], first)
    fig_arc, fig_pt = np.divmod(key[first], n)
    fig_size = np.bincount(fig_arc, minlength=n_arcs)

    # variants: the out-neighbors b != u of the head, or b = u alone
    base = out_pt != tail[out_arc]
    lone = np.flatnonzero(np.bincount(out_arc[base], minlength=n_arcs) == 0)
    var_arc = np.concatenate([out_arc[base], lone])
    order = np.argsort(var_arc, kind="stable")
    var_arc = var_arc[order]
    var_pt = np.concatenate([out_pt[base], tail[lone]])[order]
    pv = pts[head[var_arc]]
    f, ok = frames(np.stack([-pv, pts[tail[var_arc]] - pv, pts[var_pt] - pv],
                            axis=1))
    lead = np.flatnonzero(np.diff(var_arc, prepend=-1))
    plan_arc = np.flatnonzero(np.logical_or.reduceat(ok, lead) == 0)
    # a planar arc takes its first variant's frame, whose row 1 is off the
    # ray of v unless u - v is on it
    if (_dot(pts[tail[plan_arc]] - pts[head[plan_arc]],
             f[lead[plan_arc], 1]) < FRAME_EPS).any():
        raise Stalled("arc endpoints collapse onto one ray")
    var_at = np.flatnonzero(ok)
    var_arc = var_arc[var_at]
    # one coordinate row per (frame, figure point): three-vector rows first
    row_f, row_fig = _blocks(fig_size, np.concatenate([var_arc, plan_arc]))
    rel = pts[fig_pt[row_fig]] - pts[head[fig_arc[row_fig]]]
    coords = np.einsum("nk,nik->ni", rel,
                       f[np.concatenate([var_at, lead[plan_arc]])[row_f]])
    n3 = int(fig_size[var_arc].sum())
    c3, c12, c34 = coords[:n3], coords[n3:, :2], coords[n3:, 2:]
    rho = np.hypot(c34[:, 0], c34[:, 1])
    ids3, ids12, ids_rho = np.split(tolerance_cluster(
        np.concatenate([c3.ravel(), c12.ravel(), rho]), eps).ids,
        [c3.size, c3.size + c12.size])
    ranks = np.zeros(n_arcs, dtype=int)
    n_least = 0

    if len(var_arc):
        # three-vector figures: each variant's entries sorted, least variant
        # wins; an entry is the rank of its (4 coordinate ids, mask) row
        entry = joint_ranks(np.c_[ids3.reshape(-1, 4),
                                  masks[row_fig[:n3]]])[1]
        var_rank = joint_ranks(padded_rows(_sort_runs(entry, row_f[:n3]),
                                           fig_size[var_arc]))[1]
        first = np.flatnonzero(np.diff(var_arc, prepend=-1))
        least, ranks[var_arc[first]] = joint_ranks(
            np.minimum.reduceat(var_rank, first))
        n_least = len(least)

    if len(plan_arc):
        # planar figures: the axial part sorted, the angular part on the
        # circle; an entry is the rank of its (x id, y id, rho id, mask) row
        entry = joint_ranks(np.c_[ids12.reshape(-1, 2), ids_rho,
                                  masks[row_fig[n3:]]])[1]
        owner = row_f[n3:] - len(var_arc)
        on = rho > AXIS_TOL
        axial = padded_rows(_sort_runs(entry[~on], owner[~on]),
                            np.bincount(owner[~on], minlength=len(plan_arc)))
        # the angular parts of all planar figures share one gap quantization
        size = np.bincount(owner[on], minlength=len(plan_arc))
        codes = canonical_axes(np.arctan2(c34[on, 1], c34[on, 0]), entry[on],
                               size[size > 0], THETA_TOL)[2]
        angular = np.full((len(plan_arc), codes.shape[1]), -1)
        angular[size > 0] = codes
        ranks[plan_arc] = n_least + joint_ranks(np.c_[axial, angular])[1]
    return ranks


# ---------------------------------------------------------------------------
# successor pairs and mark figures


def successor_angles(points, arcs: np.ndarray, eps: float) -> tuple:
    """(pairs, ids, reps): the successor angles of all arcs, clustered.

    For an arc uv, the successor angle of an out-arc vw, w != u, is the
    angle at v between the two.  ``pairs`` holds the (arc, out-arc) rows
    of ``arcs`` in row order, ``ids`` the class of every pair's angle and
    ``reps`` the class minima, from one :func:`tolerance_cluster`.
    Predecessors are the same pairs read by their second column.
    """
    pts = np.asarray(points, dtype=float)
    tail, head = arcs.T
    pairs = np.stack(_blocks(np.bincount(tail, minlength=len(pts)), head), axis=1)
    pairs = pairs[head[pairs[:, 1]] != tail[pairs[:, 0]]]
    pv = pts[head[pairs[:, 0]]]
    base, leg = pts[tail[pairs[:, 0]]] - pv, pts[head[pairs[:, 1]]] - pv
    cos = _dot(base, leg) / (np.linalg.norm(base, axis=1) *
                             np.linalg.norm(leg, axis=1))
    clu = tolerance_cluster(np.arccos(np.clip(cos, -1.0, 1.0)), eps)
    return pairs, clu.ids, clu.reps


def _successor_counts(succ: np.ndarray, n_arcs: int) -> tuple:
    """The distinct numbers of successors of the arcs."""
    return tuple(np.unique(np.bincount(succ[:, 0], minlength=n_arcs)).tolist())


@dataclass(frozen=True, eq=False)
class MarkFigures:
    """The mark circles of the arcs: successors, and predecessors reflected
    onto them, as one table of positions.

    Successor endpoints at angle alpha from an arc lie on a circle around
    the arc head; reflecting predecessors across the bisecting hyperplane
    of the arc puts them on the same circle.  Positions closer than the
    angular tolerance merge; distinct arcs occupy distinct points of the
    circle, so each position holds at most one successor and one
    predecessor.  The positions of arc a are rows starts[a]:starts[a + 1]
    of ``owner`` a, ascending in theta in [0, 2pi): with the roles, the
    flat configurations of :func:`canonical_axes`.  ``succ`` and ``pred``
    hold the arc row marked there, -1 for none.
    """

    starts: np.ndarray
    owner: np.ndarray
    theta: np.ndarray
    succ: np.ndarray
    pred: np.ndarray

    @property
    def roles(self) -> np.ndarray:
        """0 for a successor alone, 1 for a predecessor alone, 2 for both."""
        return np.where(self.succ >= 0, 2 * (self.pred >= 0), 1)

    @property
    def free(self) -> np.ndarray:
        """Positions holding a successor and no predecessor."""
        return (self.succ >= 0) & (self.pred < 0)

    def of(self, arc: int) -> slice:
        """The positions of one arc."""
        return slice(int(self.starts[arc]), int(self.starts[arc + 1]))

    def join(self, arcs: np.ndarray) -> tuple:
        """(k, i) for every position i on the figure of arcs[k]."""
        return _blocks(np.diff(self.starts), arcs)


def mark_figures(points, arcs: np.ndarray, succ: np.ndarray, delta: float,
                 alpha: float) -> MarkFigures:
    """The mark figures of the arcs under the (arc, successor) row pairs
    ``succ``: every pair marks the successor's head on the figure of its
    arc and the arc's tail, reflected, on the figure of the successor.
    Arcs without marks get no positions.  All circle centres come from one
    stacked :func:`frames` call, and the positions from one
    :func:`circular_cluster` with a circle per arc."""
    pts = np.asarray(points, dtype=float)
    tail, head = arcs.T
    # marks in (owner, input) order are successors, then predecessors
    owner = np.concatenate([succ[:, 0], succ[:, 1]])
    other = np.concatenate([succ[:, 1], succ[:, 0]])
    is_succ = np.arange(len(owner)) < len(succ)
    own, at = np.unique(owner, return_inverse=True)
    pu, pv = pts[tail[own]], pts[head[own]]
    q = pu - pv
    f, ok = frames(np.stack([pv, q], axis=1), SPAN_EPS)
    if not ok.all():
        raise ValueError("arc through the origin has no mark circle")
    r1, r2, f1, f2 = np.moveaxis(f, 1, 0)
    # a center solves v.x = 1 - d^2/2 (x on the sphere at distance d from
    # v) and (u-v).x = (u-v).v + d^2 cos(alpha) (successor angle condition)
    x = 1.0 - delta * delta / 2.0
    y = (_dot(q, pv) + delta * delta * math.cos(alpha) - x * _dot(q, r1)) \
        / _dot(q, r2)
    center = x * r1 + y[:, None] * r2
    if (np.sqrt(np.maximum(1.0 - _dot(center, center), 0.0))
            < POINT_RADIUS).any():
        raise ValueError("mark circle degenerates to a point")
    mark = np.where(is_succ[:, None], pts[head[other]],
                    _reflect_across_bisector(pts[tail[other]], pu[at], pv[at]))
    rel = mark - center[at]
    th = wrap_angle(np.arctan2(_dot(rel, f2[at]), _dot(rel, f1[at])))

    # a position sits at its smallest angle, in (arc, angle) order
    order = np.lexsort((th, owner))
    pos = circular_cluster(th[order], THETA_TOL, groups=owner[order])
    pos_owner = np.empty(pos.count, dtype=int)
    pos_owner[pos.ids] = owner[order]

    def marked(role: np.ndarray) -> np.ndarray:
        # the last mark of the role at every position wins
        k = np.full(pos.count, -1)
        np.maximum.at(k, pos.ids[role], np.flatnonzero(role))
        return np.where(k >= 0, other[order][k], -1)

    return MarkFigures(np.searchsorted(pos_owner, np.arange(len(arcs) + 1)),
                       pos_owner, pos.reps, marked(is_succ[order]),
                       marked(~is_succ[order]))


# ---------------------------------------------------------------------------
# the pruning loop


class _Run:
    """The pruning loop of one set as generators: they yield (stage, key)
    pairs and return their result."""

    def __init__(self, points, eps, delta0):
        self.all_points = np.asarray(points, dtype=float)
        self.eps = eps
        self.delta0 = delta0

    def run(self):
        alive = np.arange(len(self.all_points))
        while True:
            n = len(alive)
            g = closest_pair_graph(self.all_points[alive], eps=self.eps) \
                if n > 1 else None
            if g is None or g.delta > self.delta0:
                yield "C1", (n, "separated")
                return WellSeparated(self.all_points[alive])
            yield "C1", (n, "dense")
            arcs = np.concatenate([g.edges, g.edges[:, ::-1]])
            arcs = arcs[np.lexsort(arcs.T[::-1])]
            yield "C2", len(arcs)
            outcome = yield from self._arc_rounds(self.all_points[alive], arcs,
                                                  g.delta)
            if isinstance(outcome, np.ndarray):
                # a vertex prune that progressed keeps at most half
                alive = alive[outcome]
                continue
            return outcome

    def _arc_rounds(self, points, arcs, delta):
        """C3 through C11 on one closest-pair graph; returns either an index
        array of surviving vertices or a final exit."""
        # every round that continues keeps a strict subset of the arcs
        while True:
            graph = DirectedGraph(len(points), arcs)
            res = prune_by_key(graph.degrees())
            yield "C3", res.histogram
            if res.progressed:
                return res.indices
            res = prune_by_key(edge_figure_codes(points, graph, self.eps))
            yield "C4", res.histogram
            if res.progressed:
                arcs = arcs[res.indices]
                continue
            if self._mirror_symmetric(points, graph, tuple(arcs[0].tolist())):
                yield "C5", "mirror"
                return MirrorSymmetric(points, graph)
            yield "C5", "chiral"
            pairs, ids, reps = successor_angles(points, arcs, self.eps)
            alpha_id, alpha = self._choose_alpha(points, arcs, pairs, ids,
                                                 reps, delta)
            yield "C6", alpha_id
            succ = pairs[ids == alpha_id]
            yield "C7", _successor_counts(succ, len(arcs))
            outcome = yield from self._successor_rounds(points, graph, succ,
                                                        delta, alpha)
            if not isinstance(outcome, np.ndarray):
                return outcome
            arcs = outcome

    def _mirror_symmetric(self, points, graph: DirectedGraph, arc) -> bool:
        u, v = arc
        # an empty neighbourhood keeps its (0, 4) shape, so it matches one;
        # unequal counts fail the shape test of match_multisets
        reflected = _reflect_across_bisector(points[graph.out_rows(v)[:, 1]],
                                             points[u], points[v])
        return match_multisets(reflected, points[graph.in_rows(u)[:, 0]],
                               MIRROR_TOL)

    def _choose_alpha(self, points, arcs, pairs, ids, reps, delta):
        """Smallest successor angle at which the mark figure of arc 0 is not
        fully symmetric: it has a free successor position."""
        # the figure of arc 0 needs the pairs that arc 0 is a member of
        near = (pairs == 0).any(axis=1)
        for aid in np.unique(ids[pairs[:, 0] == 0]).tolist():
            alpha = float(reps[aid])
            if math.sin(alpha) <= ALPHA_POINT_TOL:
                continue        # the circle at angle 0 or pi is a point
            figs = mark_figures(points, arcs, pairs[near & (ids == aid)],
                                delta, alpha)
            if figs.free[figs.of(0)].any():
                return aid, alpha
        raise Stalled("every successor angle is mirror symmetric "
                      "although the mirror test failed")

    def _successor_rounds(self, points, graph: DirectedGraph, succ, delta,
                          alpha):
        """C8 through C11: prune arcs by mark figure or successors by axes;
        returns either the surviving arcs or the edge-transitive exit."""
        arcs = graph.arc_rows
        # every round that continues keeps a strict subset of the successor
        # pairs, which _axes_prune checks
        while True:
            figs = mark_figures(points, arcs, succ, delta, alpha)
            sizes = np.diff(figs.starts)
            if not sizes.all():
                raise Stalled("an arc has no mark position")
            count, base, codes = canonical_axes(figs.theta, figs.roles, sizes,
                                                THETA_TOL)
            res = prune_by_key(joint_ranks(codes)[1])
            yield "C9", res.histogram
            if res.progressed:
                return arcs[res.indices]
            at = figs.of(0)
            if not figs.free[at].any():
                raise Stalled("no free successor position on the mark circle")
            theta = figs.theta[at]
            is_s, is_p = figs.succ[at] >= 0, figs.pred[at] >= 0
            k_s, k_p = int(is_s.sum()), int(is_p.sum())
            if k_s == k_p and is_regular_polygon(theta[is_s], THETA_TOL) \
                    and is_regular_polygon(theta[is_p], THETA_TOL):
                # the torsions: counterclockwise from predecessor to successor
                tau = np.mod(theta[is_s] - theta[is_p, None], TWO_PI)
                tau0 = float(tau[tau > THETA_TOL].min())
                yield "C10", ("transitive", k_s)
                return EdgeTransitive(points, graph, succ, figs, delta, alpha,
                                      tau0)
            yield "C10", ("mixed", k_s, k_p)
            succ = self._axes_prune(figs, count, base, len(succ))
            yield "C11", _successor_counts(succ, len(arcs))

    @staticmethod
    def _axes_prune(figs: MarkFigures, count, base, before: int) -> np.ndarray:
        """Keep the successors hit by the count canonical axes from base of
        their figure after rotating them counterclockwise onto the first
        free successor position; returns the kept (arc, successor) pairs."""
        base, spacing = base[figs.owner], TWO_PI / count[figs.owner]
        dstar = np.full(len(count), np.inf)
        free = figs.free
        np.minimum.at(dstar, figs.owner[free],
                      ((figs.theta - base) % spacing)[free])
        off = (figs.theta - base - dstar[figs.owner]) % spacing
        hit = (off <= THETA_TOL) | (spacing - off <= THETA_TOL)
        kept = (figs.succ >= 0) & hit
        succ = np.c_[figs.owner[kept], figs.succ[kept]]
        if not 0 < len(succ) < before:
            raise Stalled("axes pruning must shrink the successor sets")
        return succ[np.lexsort(succ.T[::-1])]


def prune_steps(points, eps: float = EPS_EQ, delta0: float = CONSTANTS.delta0):
    """The pruning loop of a set on the unit sphere as a generator: it
    yields the (stage, key) pairs one at a time and returns the exit,
    WellSeparated, MirrorSymmetric or EdgeTransitive.  Congruent inputs
    yield equal keys, so the first key that differs between two runs
    certifies non-congruence, and the runs can stop there."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    return _Run(pts, eps, delta0).run()


def next_step(steps) -> tuple:
    """(key, None) for the next (stage, key) pair of a stage-key generator,
    or (None, exit) when it has returned its exit."""
    try:
        return next(steps), None
    except StopIteration as stop:
        return None, stop.value


def run_steps(steps) -> tuple:
    """(exit, keys): a stage-key generator run to its end."""
    keys: list = []
    while (step := next_step(steps))[0] is not None:
        keys.append(step[0])
    return step[1], keys


def iterative_prune(points, eps: float = EPS_EQ,
                    delta0: float = CONSTANTS.delta0):
    """(exit, stage_keys): :func:`prune_steps` run to its end."""
    return run_steps(prune_steps(points, eps, delta0))
