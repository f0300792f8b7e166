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
emitted stage keys make any divergence observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geom import EPS_EQ, CONSTANTS, frame, match_multisets
from .condense import (TWO_PI, canonical_axes, circular_cluster, dense_ranks,
                       is_regular_polygon, prune_by_key, tolerance_cluster,
                       wrap_angle)
from .cpgraph import closest_pair_graph

THETA_TOL = 1e-7            # angular tolerance for positions on mark circles

ROLE_SUCC = 0
ROLE_PRED = 1
ROLE_BOTH = 2


@dataclass(frozen=True)
class DirectedGraph:
    """Arcs (ordered index pairs) over a point set, with successor sets.

    ``succ`` maps an arc to the tuple of its current successor arcs; it is
    None until successor angles get assigned.  Predecessors are derived:
    tu is a predecessor of uv exactly when uv is a successor of tu.
    """

    n: int
    arcs: frozenset
    succ: Optional[dict] = None
    _out: dict = field(default_factory=dict, compare=False, repr=False)
    _in: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        for a in self.arcs:
            self._out.setdefault(a[0], []).append(a)
            self._in.setdefault(a[1], []).append(a)
        for m in (self._out, self._in):
            for k in m:
                m[k].sort()

    def out_arcs(self, v) -> list:
        return self._out.get(v, [])

    def in_arcs(self, v) -> list:
        return self._in.get(v, [])

    def degrees(self, v) -> tuple:
        return (len(self._out.get(v, ())), len(self._in.get(v, ())))

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
    for arc in sorted(graph.arcs):
        u, v = arc
        base = points[u] - points[v]
        vals = []
        for a in graph.out_arcs(v):
            if a[1] == u:
                continue
            vals.append((a, _angle(base, points[a[1]] - points[v])))
        per_arc[arc] = vals
        population.extend(t for _, t in vals)
    clu = tolerance_cluster(population, eps)
    tagged: dict = {}
    k = 0
    for arc in sorted(graph.arcs):
        lst = []
        for a, val in per_arc[arc]:
            lst.append((a, int(clu.ids[k]), val))
            k += 1
        tagged[arc] = lst
    return tagged, clu.reps


def _edge_figure_entries(points, graph: DirectedGraph, arc):
    """Figure points of an arc with direction masks; the head v is implicit.

    Mask bits: 1 for the tail u, 2 for endpoints of arcs out of v, 4 for
    sources of arcs into u.  The reversed arc vu shows up as bit 2 on u.
    """
    u, v = arc
    masks: dict = {u: 1}
    for a in graph.out_arcs(v):
        masks[a[1]] = masks.get(a[1], 0) | 2
    for a in graph.in_arcs(u):
        if a[0] != v:
            masks[a[0]] = masks.get(a[0], 0) | 4
    idxs = sorted(masks)
    return idxs, [masks[i] for i in idxs]


def edge_figure_codes(points, graph: DirectedGraph, eps: float = EPS_EQ) -> dict:
    """Canonical code per arc, quantized jointly over the whole graph.

    The code is the minimum, over base vectors b from the out-neighbors of
    the head, of the sorted string of frame coordinates of all figure
    points, tagged with direction masks.  Arcs whose head has no second
    out-neighbor fall back to a two-vector frame plus a canonical cyclic
    code for the angular part.
    """
    coord_pop: list = []
    prepared: dict = {}
    for arc in sorted(graph.arcs):
        u, v = arc
        idxs, masks = _edge_figure_entries(points, graph, arc)
        rel = points[idxs] - points[v]
        variants = []
        for a in graph.out_arcs(v):
            if a[1] == u:
                continue
            f = frame([-points[v], points[u] - points[v],
                       points[a[1]] - points[v]])
            if f is None:
                continue
            coords = rel @ f.T
            variants.append(("f", len(coord_pop), len(idxs)))
            coord_pop.extend(coords.ravel())
        if not variants:
            f = frame([-points[v], points[u] - points[v]])
            if f is None:
                raise AssertionError("arc endpoints collapse onto one ray")
            c12, c34 = rel @ f[:2].T, rel @ f[2:].T
            rho = np.hypot(c34[:, 0], c34[:, 1])
            theta = wrap_angle(np.arctan2(c34[:, 1], c34[:, 0]))
            on = rho > 1e-9
            start = len(coord_pop)
            coord_pop.extend(c12.ravel())
            coord_pop.extend(rho)
            variants.append(("p", start, len(idxs), on, theta))
        prepared[arc] = (masks, variants)
    cids = tolerance_cluster(coord_pop, eps).ids if coord_pop else np.zeros(0, int)
    codes: dict = {}
    planar: list = []       # (arc, axial part, angular configuration)
    for arc in sorted(graph.arcs):
        masks, variants = prepared[arc]
        if variants[0][0] == "p":
            _, start, m, on, theta = variants[0]
            flat = [(int(cids[start + 2 * i]), int(cids[start + 2 * i + 1]),
                     int(cids[start + 2 * m + i]), masks[i]) for i in range(m)]
            axial = tuple(sorted(f for f, o in zip(flat, on) if not o))
            planar.append((arc, axial,
                           (theta[on], [f for f, o in zip(flat, on) if o])))
            continue
        frame_codes = []
        for _, start, m in variants:
            entries = [tuple(int(c) for c in cids[start + 4 * i: start + 4 * i + 4])
                       + (masks[i],) for i in range(m)]
            frame_codes.append(("f", tuple(sorted(entries))))
        codes[arc] = min(frame_codes)
    # the angular parts of all planar figures share one gap quantization
    axes = iter(canonical_axes([c for _, _, c in planar if c[1]], THETA_TOL))
    for arc, axial, (_, labels) in planar:
        codes[arc] = ("p", axial, next(axes).code if labels else ())
    return codes


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
    center: np.ndarray
    frame: np.ndarray          # rows f1, f2 spanning the circle plane
    radius: float
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


def ps_figure(points, arc, succ_arcs, pred_arcs, delta: float,
              alpha: float) -> PSFigure:
    pu, pv = points[arc[0]], points[arc[1]]
    q = pu - pv
    f = frame([pv, q], 1e-12)
    if f is None:
        raise ValueError("arc through the origin has no mark circle")
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
    return PSFigure(arc, center, np.vstack([f1, f2]), radius, pos.reps,
                    np.array(roles), tuple(at[ROLE_SUCC]), tuple(at[ROLE_PRED]))


def ps_figures(points, graph: DirectedGraph, delta: float, alpha: float) -> dict:
    """Figures of all arcs, built from the graph's successor sets."""
    pred = graph.pred()
    return {a: ps_figure(points, a, graph.succ[a], pred[a], delta, alpha)
            for a in sorted(graph.arcs)}


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
            arcs = frozenset((i, j) for i, j in g.edges) | \
                frozenset((j, i) for i, j in g.edges)
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
            degs = [graph.degrees(v) for v in range(len(points))]
            res = prune_by_key(degs)
            self.emit("C3", res.histogram)
            if res.progressed:
                return np.array(res.indices, dtype=int)
            codes = edge_figure_codes(points, graph, self.eps)
            arclist = sorted(arcs)
            res = prune_by_key(dense_ranks([codes[a] for a in arclist]))
            self.emit("C4", res.histogram)
            if res.progressed:
                arcs = frozenset(arclist[i] for i in res.indices)
                continue
            rep = arclist[0]
            if self._mirror_symmetric(points, graph, rep):
                self.emit("C5", "mirror")
                return MirrorSymmetric(points, graph)
            self.emit("C5", "chiral")
            angle_ids, angle_reps = _graph_angle_ids(points, graph, self.eps)
            alpha_id, alpha = self._choose_alpha(points, graph, rep,
                                                 angle_ids, angle_reps, delta)
            self.emit("C6", alpha_id)
            succ = {a: tuple(x for x, aid, _ in angle_ids[a] if aid == alpha_id)
                    for a in arclist}
            self.emit("C7", tuple(sorted({len(s) for s in succ.values()})))
            step = self._successor_rounds(points, arcs, succ, delta, alpha)
            if step[0] == "arcs":
                arcs = step[1]
                continue
            return step[1]
        raise AssertionError("arc pruning failed to terminate")

    def _mirror_symmetric(self, points, graph: DirectedGraph, arc) -> bool:
        u, v = arc
        outs = np.array([points[a[1]] for a in graph.out_arcs(v)])
        ins = np.array([points[a[0]] for a in graph.in_arcs(u)])
        if len(outs) != len(ins):
            return False
        reflected = np.array([_reflect_across_bisector(x, points[u], points[v])
                              for x in outs])
        return match_multisets(reflected, ins, 1e-7)

    def _choose_alpha(self, points, graph, rep, angle_ids, angle_reps, delta):
        """Smallest successor angle whose mark figure is not fully symmetric."""
        rep_ids = sorted({aid for _, aid, _ in angle_ids[rep]})
        for aid in rep_ids:
            alpha = float(angle_reps[aid])
            if math.sin(alpha) <= 1e-7:
                continue        # the circle at angle 0 or pi is a point
            succ_arcs = [a for a, i, _ in angle_ids[rep] if i == aid]
            pred_arcs = [t for t in graph.in_arcs(rep[0])
                         if any(a == rep and i == aid for a, i, _ in angle_ids[t])]
            fig = ps_figure(points, rep, succ_arcs, pred_arcs, delta, alpha)
            if fig.has_free_successor():
                return aid, alpha
        raise AssertionError("every successor angle is mirror symmetric "
                             "although the mirror test failed")

    def _successor_rounds(self, points, arcs, succ, delta, alpha):
        """C8 through C11: prune arcs by mark figure or successors by axes."""
        arclist = sorted(arcs)
        for _ in range(CONSTANTS.kissing_2 + 2):
            graph = DirectedGraph(len(points), arcs, succ)
            figures = ps_figures(points, graph, delta, alpha)
            axes = canonical_axes([(figures[a].thetas, figures[a].roles.tolist())
                                   for a in arclist], THETA_TOL)
            res = prune_by_key(dense_ranks([ax.code for ax in axes]))
            self.emit("C9", res.histogram)
            if res.progressed:
                return "arcs", frozenset(arclist[i] for i in res.indices)
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
