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
frame coordinates), so congruent inputs run through identical stages; the
emitted stage keys make any divergence observable.  Arcs travel as one
sorted int array.  The edge-figure and mark-figure codes of a round are int
strings, replaced by their ranks among the codes of that round's graph, so
ranks compare within one graph only; the C4 and C9 keys are their
histograms, which congruent inputs share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Optional

import numpy as np

from .geom import EPS_EQ, CONSTANTS, frames, match_multisets
from .condense import (TWO_PI, canonical_axes, circular_cluster,
                       is_regular_polygon, joint_ranks, padded_rows,
                       prune_by_key, tolerance_cluster, wrap_angle)
from .cpgraph import closest_pair_graph

THETA_TOL = 1e-7            # angular tolerance for positions on mark circles

ROLE_SUCC = 0
ROLE_PRED = 1
ROLE_BOTH = 2


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Arcs (ordered index pairs) over a point set, with successor sets.

    ``arc_rows`` holds the arcs as an (m, 2) int array of distinct
    (tail, head) rows in lexicographic order; row subsets of a sorted array
    stay sorted.
    ``succ`` maps an arc tuple to the tuple of its current successor arcs;
    it is None until successor angles get assigned.  Predecessors are
    derived: tu is a predecessor of uv exactly when uv is a successor of tu.
    """

    n: int
    arc_rows: np.ndarray
    succ: Optional[dict] = None

    @cached_property
    def arcs(self) -> list:
        """The arcs as (tail, head) tuples, in sorted order."""
        return list(map(tuple, self.arc_rows.tolist()))

    @cached_property
    def _starts(self) -> tuple:
        """Where the out-arcs of every vertex start in arc order and its
        in-arcs in head order, and the head order (arcs by head, then tail)."""
        tail, head = self.arc_rows.T
        by_head = np.lexsort((tail, head))
        at = np.arange(self.n + 1)
        return (np.searchsorted(tail, at).tolist(),
                np.searchsorted(head[by_head], at).tolist(), by_head)

    def out_rows(self, v) -> np.ndarray:
        """The arcs out of v as rows, by head."""
        s = self._starts[0]
        return self.arc_rows[s[v]:s[v + 1]]

    def in_rows(self, v) -> np.ndarray:
        """The arcs into v as rows, by tail."""
        _, s, by_head = self._starts
        return self.arc_rows[by_head[s[v]:s[v + 1]]]

    def degrees(self) -> np.ndarray:
        """(out-degree, in-degree) row of every vertex."""
        return np.c_[np.bincount(self.arc_rows[:, 0], minlength=self.n),
                     np.bincount(self.arc_rows[:, 1], minlength=self.n)]

    def pred(self) -> dict:
        p: dict = {a: [] for a in self.arcs}
        for a, succs in (self.succ or {}).items():
            for s in succs:
                p[s].append(a)
        for a in p:
            p[a].sort()
        return p


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
    graph: DirectedGraph        # carries the final successor sets
    delta: float
    alpha: float
    tau0: float


def _reflect_across_bisector(x, u, v):
    """Reflect x across the hyperplane of points equidistant from u and v."""
    d = v - u
    return x - (2.0 * (x @ d) / (d @ d)) * d


def _angle(a: np.ndarray, b: np.ndarray) -> float:
    c = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
    return math.acos(min(1.0, max(-1.0, c)))


# ---------------------------------------------------------------------------
# figure codes


def _graph_angle_ids(points, graph: DirectedGraph, eps: float):
    """Cluster the successor angles of all arcs of the graph.

    For an arc (u, v), the successor angle of an out-arc (v, w), w != u, is
    the angle at v between the two.  Returns per-arc lists of
    (out_arc, cluster_id, value) plus the class representatives.
    """
    per_arc: dict = {}
    population: list = []
    for arc in graph.arcs:
        u, v = arc
        base = points[u] - points[v]
        vals = []
        for a in map(tuple, graph.out_rows(v).tolist()):
            if a[1] == u:
                continue
            vals.append((a, _angle(base, points[a[1]] - points[v])))
        per_arc[arc] = vals
        population.extend(t for _, t in vals)
    clu = tolerance_cluster(population, eps)
    tagged: dict = {}
    k = 0
    for arc in graph.arcs:
        lst = []
        for a, val in per_arc[arc]:
            lst.append((a, int(clu.ids[k]), val))
            k += 1
        tagged[arc] = lst
    return tagged, clu.reps


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


def _code_rows(axes: list) -> np.ndarray:
    """The codes of canonical axes as rows padded with -1."""
    lengths = [len(ax.code) for ax in axes]
    return padded_rows(np.fromiter(chain.from_iterable(ax.code for ax in axes),
                                   int, sum(lengths)), lengths)


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
    three-vector codes.  All frames of the graph come from two stacked
    :func:`frames` calls, and all figure coordinates from one einsum.
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
    # figure points sorted by (arc, point), with their or-ed masks
    key, inv = np.unique(np.concatenate([
        np.arange(n_arcs) * n + tail, out_arc * n + out_pt,
        in_arc[from_v] * n + in_pt[from_v]]), return_inverse=True)
    masks = np.zeros(len(key), dtype=int)
    np.bitwise_or.at(masks, inv, np.repeat(
        [1, 2, 4], [n_arcs, len(out_arc), int(from_v.sum())]))
    fig_arc, fig_pt = np.divmod(key, n)
    fig_size = np.bincount(fig_arc, minlength=n_arcs)

    def stack(owner, *ends):
        pv = pts[head[owner]]
        return np.stack([-pv] + [pts[e] - pv for e in ends], axis=1)

    base = out_pt != tail[out_arc]
    var_arc, var_pt = out_arc[base], out_pt[base]
    f3, ok = frames(stack(var_arc, tail[var_arc], var_pt))
    var_arc, f3 = var_arc[ok], f3[ok]
    planar = np.ones(n_arcs, dtype=bool)
    planar[var_arc] = False
    plan_arc = np.flatnonzero(planar)
    f2, ok = frames(stack(plan_arc, tail[plan_arc]))
    if not ok.all():
        raise AssertionError("arc endpoints collapse onto one ray")
    # one coordinate row per (frame, figure point): three-vector rows first
    row_f, row_fig = _blocks(fig_size, np.concatenate([var_arc, plan_arc]))
    rel = pts[fig_pt[row_fig]] - pts[head[fig_arc[row_fig]]]
    coords = np.einsum("nk,nik->ni", rel, np.concatenate([f3, f2])[row_f])
    n3 = int(fig_size[var_arc].sum())
    c3, c12, c34 = coords[:n3], coords[n3:, :2], coords[n3:, 2:]
    rho = np.hypot(c34[:, 0], c34[:, 1])
    ids3, ids12, ids_rho = np.split(tolerance_cluster(
        np.concatenate([c3.ravel(), c12.ravel(), rho]), eps).ids,
        [c3.size, c3.size + c12.size])
    ranks = np.zeros(n_arcs, dtype=int)

    # three-vector figures: each variant's entries sorted, least variant
    # wins; an entry is the rank of its (4 coordinate ids, mask) row
    entry = joint_ranks(np.c_[ids3.reshape(-1, 4), masks[row_fig[:n3]]])[1]
    var_rank = joint_ranks(padded_rows(_sort_runs(entry, row_f[:n3]),
                                       fig_size[var_arc]))[1]
    first = np.flatnonzero(np.diff(var_arc, prepend=-1))
    least, ranks[var_arc[first]] = joint_ranks(
        np.minimum.reduceat(var_rank, first))

    # planar figures: the axial part sorted, the angular part on the circle;
    # an entry is the rank of its (x id, y id, rho id, mask) row
    entry = joint_ranks(np.c_[ids12.reshape(-1, 2), ids_rho,
                              masks[row_fig[n3:]]])[1]
    owner = row_f[n3:] - len(var_arc)
    on = rho > 1e-9
    axial = padded_rows(_sort_runs(entry[~on], owner[~on]),
                        np.bincount(owner[~on], minlength=len(plan_arc)))
    # the angular parts of all planar figures share one gap quantization
    at = np.flatnonzero(on)
    cut = np.flatnonzero(np.diff(owner[at], prepend=-1))
    theta = wrap_angle(np.arctan2(c34[:, 1], c34[:, 0]))
    axes = canonical_axes([(theta[i], entry[i]) for i in np.split(at, cut[1:])]
                          if len(at) else [], THETA_TOL)
    codes = _code_rows(axes)
    angular = np.full((len(plan_arc), codes.shape[1]), -1)
    angular[owner[at[cut]]] = codes
    ranks[plan_arc] = len(least) + joint_ranks(np.c_[axial, angular])[1]
    return ranks


# ---------------------------------------------------------------------------
# predecessor-successor figures


@dataclass
class PSFigure:
    """Mark circle of an arc: successors, and predecessors reflected onto it.

    Successor endpoints at angle alpha from the arc lie on a circle around
    the arc head; reflecting predecessors across the bisecting hyperplane
    of the arc puts them on the same circle.  Positions closer than the
    angular tolerance merge; distinct arcs occupy distinct points of the
    circle, so each position holds at most one successor and one
    predecessor.
    """

    arc: tuple
    thetas: np.ndarray         # merged positions, ascending in [0, 2pi)
    roles: np.ndarray
    succ_at: tuple
    pred_at: tuple

    def torsions(self) -> list:
        """(tau, pred_arc, succ_arc) for every predecessor-successor pair,
        tau being the counterclockwise angle from predecessor to successor."""
        out = []
        for i in range(len(self.thetas)):
            if self.pred_at[i] is None:
                continue
            for j in range(len(self.thetas)):
                if self.succ_at[j] is None:
                    continue
                out.append(((self.thetas[j] - self.thetas[i]) % TWO_PI,
                            self.pred_at[i], self.succ_at[j]))
        return out

    def has_free_successor(self) -> bool:
        return any(s is not None and p is None
                   for s, p in zip(self.succ_at, self.pred_at))


def _mark_frames(points, arcs) -> np.ndarray:
    """frame(v, u - v) of every arc uv, stacked."""
    pts = np.asarray(points, dtype=float)
    ends = np.asarray(arcs, dtype=int).reshape(-1, 2)
    pv = pts[ends[:, 1]]
    f, ok = frames(np.stack([pv, pts[ends[:, 0]] - pv], axis=1), 1e-12)
    if not ok.all():
        raise ValueError("arc through the origin has no mark circle")
    return f


def ps_figure(points, arc, succ_arcs, pred_arcs, delta: float,
              alpha: float, f: np.ndarray) -> PSFigure:
    """The figure of one arc; f is the arc's row of :func:`_mark_frames`."""
    pu, pv = points[arc[0]], points[arc[1]]
    q = pu - pv
    r1, r2, f1, f2 = f
    qr1, nw = float(q @ r1), float(q @ r2)
    # center solves v.x = 1 - d^2/2 (x on the sphere at distance d from v)
    # and (u-v).x = (u-v).v + d^2 cos(alpha) (successor angle condition)
    b1 = 1.0 - delta * delta / 2.0
    b2 = float(q @ pv) + delta * delta * math.cos(alpha)
    x = b1
    y = (b2 - x * qr1) / nw
    center = x * r1 + y * r2
    radius = math.sqrt(max(1.0 - float(center @ center), 0.0))
    if radius < 1e-9:
        raise ValueError("mark circle degenerates to a point")
    marks = [(points[a[1]], ROLE_SUCC, a) for a in succ_arcs]
    marks += [(_reflect_across_bisector(points[a[0]], pu, pv), ROLE_PRED, a)
              for a in pred_arcs]
    if not marks:
        raise ValueError("empty mark figure")
    th = wrap_angle([math.atan2(float((x - center) @ f2),
                                float((x - center) @ f1)) for x, _, _ in marks])
    # a position sits at its smallest angle; a role mix makes it ROLE_BOTH
    pos = circular_cluster(th, THETA_TOL)
    roles: list = [None] * pos.count
    at = {ROLE_SUCC: [None] * pos.count, ROLE_PRED: [None] * pos.count}
    for i in np.argsort(th, kind="stable"):
        k, (_, role, a) = pos.ids[i], marks[i]
        roles[k] = role if roles[k] in (None, role) else ROLE_BOTH
        at[role][k] = a
    return PSFigure(arc, pos.reps, np.array(roles), tuple(at[ROLE_SUCC]),
                    tuple(at[ROLE_PRED]))


def ps_figures(points, graph: DirectedGraph, delta: float, alpha: float) -> dict:
    """Figures of all arcs, built from the graph's successor sets."""
    pred = graph.pred()
    arcs = graph.arcs
    return {a: ps_figure(points, a, graph.succ[a], pred[a], delta, alpha, f)
            for a, f in zip(arcs, _mark_frames(points, arcs))}


# ---------------------------------------------------------------------------
# the pruning loop


class _Run:
    def __init__(self, points, eps, delta0):
        self.all_points = np.asarray(points, dtype=float)
        self.eps = eps
        self.delta0 = delta0
        self.keys: list = []

    def emit(self, stage, key):
        self.keys.append((stage, key))

    def run(self):
        alive = np.arange(len(self.all_points))
        while True:
            n = len(alive)
            g = closest_pair_graph(self.all_points[alive], eps=self.eps) \
                if n > 1 else None
            if g is None or g.delta > self.delta0:
                self.emit("C1", (n, "separated"))
                return WellSeparated(self.all_points[alive])
            self.emit("C1", (n, "dense"))
            arcs = np.concatenate([g.edges, g.edges[:, ::-1]])
            arcs = arcs[np.lexsort(arcs.T[::-1])]
            self.emit("C2", len(arcs))
            outcome = self._arc_rounds(self.all_points[alive], arcs, g.delta)
            if isinstance(outcome, np.ndarray):
                if not len(outcome) < n:
                    raise AssertionError("vertex pruning made no progress")
                alive = alive[outcome]
                continue
            return outcome

    def _arc_rounds(self, points, arcs, delta):
        """C3 through C11 on one closest-pair graph; either an index array
        of surviving vertices or a final exit."""
        # every arc-pruning pass lowers the common degree or splits the
        # vertex degree classes, so the degree bound caps the rounds
        for _ in range(CONSTANTS.kissing_3 * (CONSTANTS.kissing_2 + 2) + 4):
            graph = DirectedGraph(len(points), arcs)
            res = prune_by_key(graph.degrees())
            self.emit("C3", res.histogram)
            if res.progressed:
                return np.array(res.indices, dtype=int)
            res = prune_by_key(edge_figure_codes(points, graph, self.eps))
            self.emit("C4", res.histogram)
            if res.progressed:
                arcs = arcs[np.array(res.indices, dtype=int)]
                continue
            rep = tuple(arcs[0].tolist())
            if self._mirror_symmetric(points, graph, rep):
                self.emit("C5", "mirror")
                return MirrorSymmetric(points, graph)
            self.emit("C5", "chiral")
            angle_ids, angle_reps = _graph_angle_ids(points, graph, self.eps)
            alpha_id, alpha = self._choose_alpha(points, graph, rep,
                                                 angle_ids, angle_reps, delta)
            self.emit("C6", alpha_id)
            succ = {a: tuple(x for x, aid, _ in angle_ids[a] if aid == alpha_id)
                    for a in graph.arcs}
            self.emit("C7", tuple(sorted({len(s) for s in succ.values()})))
            step = self._successor_rounds(points, arcs, succ, delta, alpha)
            if step[0] == "arcs":
                arcs = step[1]
                continue
            return step[1]
        raise AssertionError("arc pruning failed to terminate")

    def _mirror_symmetric(self, points, graph: DirectedGraph, arc) -> bool:
        u, v = arc
        outs = points[graph.out_rows(v)[:, 1]]
        ins = points[graph.in_rows(u)[:, 0]]
        if len(outs) != len(ins):
            return False
        # an empty neighbourhood keeps its (0, 4) shape, so it matches one
        reflected = np.array([_reflect_across_bisector(x, points[u], points[v])
                              for x in outs]).reshape(outs.shape)
        return match_multisets(reflected, ins, 1e-7)

    def _choose_alpha(self, points, graph, rep, angle_ids, angle_reps, delta):
        """Smallest successor angle whose mark figure is not fully symmetric."""
        rep_ids = sorted({aid for _, aid, _ in angle_ids[rep]})
        f = _mark_frames(points, [rep])[0]
        for aid in rep_ids:
            alpha = float(angle_reps[aid])
            if math.sin(alpha) <= 1e-7:
                continue        # the circle at angle 0 or pi is a point
            succ_arcs = [a for a, i, _ in angle_ids[rep] if i == aid]
            pred_arcs = [t for t in map(tuple, graph.in_rows(rep[0]).tolist())
                         if any(a == rep and i == aid for a, i, _ in angle_ids[t])]
            fig = ps_figure(points, rep, succ_arcs, pred_arcs, delta, alpha, f)
            if fig.has_free_successor():
                return aid, alpha
        raise AssertionError("every successor angle is mirror symmetric "
                             "although the mirror test failed")

    def _successor_rounds(self, points, arcs, succ, delta, alpha):
        """C8 through C11: prune arcs by mark figure or successors by axes."""
        for _ in range(CONSTANTS.kissing_2 + 2):
            graph = DirectedGraph(len(points), arcs, succ)
            arclist = graph.arcs
            figures = ps_figures(points, graph, delta, alpha)
            axes = canonical_axes([(figures[a].thetas, figures[a].roles.tolist())
                                   for a in arclist], THETA_TOL)
            res = prune_by_key(joint_ranks(_code_rows(axes))[1])
            self.emit("C9", res.histogram)
            if res.progressed:
                return "arcs", graph.arc_rows[np.array(res.indices, dtype=int)]
            fig = figures[arclist[0]]
            if not fig.has_free_successor():
                raise AssertionError("no free successor position on the mark circle")
            k_s = sum(1 for s in fig.succ_at if s is not None)
            k_p = sum(1 for p in fig.pred_at if p is not None)
            if k_s == k_p and self._regular_kgons(fig):
                tau0 = min(t for t, _, _ in fig.torsions() if t > THETA_TOL)
                self.emit("C10", ("transitive", k_s))
                return "exit", EdgeTransitive(points, graph, delta, alpha, tau0)
            self.emit("C10", ("mixed", k_s, k_p))
            succ = self._axes_prune(figures, arclist, succ)
            self.emit("C11", tuple(sorted({len(s) for s in succ.values()})))
        raise AssertionError("successor pruning failed to terminate")

    @staticmethod
    def _regular_kgons(fig: PSFigure) -> bool:
        return all(is_regular_polygon([t for t, o in zip(fig.thetas, occupied)
                                       if o is not None], THETA_TOL)
                   for occupied in (fig.succ_at, fig.pred_at))

    @staticmethod
    def _axes_prune(figures, arclist, succ) -> dict:
        """Keep the successors hit by the canonical axes after rotating them
        counterclockwise onto the first free successor position."""
        new_succ = {}
        before = sum(len(succ[a]) for a in arclist)
        for a in arclist:
            fig = figures[a]
            ax = canonical_axes([(fig.thetas, fig.roles.tolist())], THETA_TOL)[0]
            free = [(fig.thetas[i] - ax.base_angle) % ax.spacing
                    for i in range(len(fig.thetas))
                    if fig.succ_at[i] is not None and fig.pred_at[i] is None]
            dstar = min(free)
            kept = []
            for i in range(len(fig.thetas)):
                if fig.succ_at[i] is None:
                    continue
                off = (fig.thetas[i] - ax.base_angle - dstar) % ax.spacing
                if off <= THETA_TOL or ax.spacing - off <= THETA_TOL:
                    kept.append(fig.succ_at[i])
            new_succ[a] = tuple(sorted(kept))
        after = sum(len(new_succ[a]) for a in arclist)
        if not 0 < after < before:
            raise AssertionError("axes pruning must shrink the successor sets")
        return new_succ


def iterative_prune(points, eps: float = EPS_EQ,
                    delta0: float = CONSTANTS.delta0):
    """Prune a set on the unit sphere down to one of the three exits.

    Returns (exit, stage_keys) where exit is WellSeparated, MirrorSymmetric
    or EdgeTransitive.  Congruent inputs produce equal stage keys, so a key
    mismatch between two runs certifies non-congruence.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    run = _Run(pts, eps, delta0)
    return run.run(), run.keys
