import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from hypercongruence import geom
from hypercongruence.condense import (canonical_axes, circular_cluster,
                                      joint_ranks, tolerance_cluster,
                                      wrap_angle)
from hypercongruence.geom import (EPS_EQ, THETA_TOL, block_rotation, frame,
                                  plueckers)
from hypercongruence.harness import gen_regular_polytope, random_rotation


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture
def geom_trees(monkeypatch):
    """The shapes of the point sets of the k-d trees geom builds."""
    shapes = []

    def counted(data, *args, **kwargs):
        shapes.append(np.shape(data))
        return cKDTree(data, *args, **kwargs)
    monkeypatch.setattr(geom, "cKDTree", counted)
    return shapes


def rot3(rng) -> np.ndarray:
    """Uniform random 3D rotation from a unit quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    a, b, c, d = q
    return np.array([
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d]])


def step_angles(orbit, circle) -> np.ndarray:
    """The angles by which one step of a cycle turns its circle and the
    complementary plane, measured on the first two points."""
    f = frame(circle)
    z = orbit[:2] @ f.T @ np.array([[1, 0], [1j, 0], [0, 1], [0, 1j]])
    return np.angle(z[1] / z[0])


def rebuilt_step(orbit, circle) -> np.ndarray:
    """A cycle's step rotation rebuilt from its circle and step angles."""
    f = frame(circle)
    return f.T @ block_rotation(*step_angles(orbit, circle)) @ f


def pluecker_distance(p, q) -> float:
    """Distance of two planes as antipodal point pairs on the 5-sphere.

    Equals sqrt(2 * (1 - cos(alpha) * cos(beta))) for principal angles
    (alpha, beta).
    """
    a, b = plueckers([p, q])
    return min(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))


def chiral_helix() -> np.ndarray:
    """The 40-point orbit helix of frequencies 1 and 2 at equal radii."""
    t = 2 * np.pi * np.arange(40) / 40
    return np.stack([np.cos(t), np.sin(t),
                     np.cos(2 * t), np.sin(2 * t)], axis=1) / math.sqrt(2)


def two_helices() -> np.ndarray:
    """Two 20-point orbit helices of one rotation, the second a half turn
    along in the second plane: the orbit exit finds two cycles on the same
    invariant circle, which merge into one."""
    t = 2 * np.pi * np.arange(20) / 20
    return np.concatenate([np.c_[0.6 * np.cos(t), 0.6 * np.sin(t),
                                 0.8 * np.cos(3 * t + ph), 0.8 * np.sin(3 * t + ph)]
                           for ph in (0.0, np.pi)])


def snub_24_cell() -> np.ndarray:
    """The 96 vertices of the 600-cell with exactly one zero coordinate.
    Under delta0 = 0.7 it prunes through C4 progress and C10 "mixed" to
    24 orbit circles, whose right-parallel classes condense (M11) and then
    mark across cross pairs (M8) before the Markers restart."""
    c = gen_regular_polytope("600-cell")
    return c[(np.abs(c) < 1e-12).sum(1) == 1]


def arc_array(arcs) -> np.ndarray:
    """(tail, head) pairs as the sorted (m, 2) int array of distinct rows
    that a DirectedGraph holds."""
    return np.array(sorted(set(arcs)), dtype=int).reshape(-1, 2)


def dense_ranks(keys) -> list:
    """Rank of each key among the distinct keys in sorted order: the
    reference that int-row rankings are checked against."""
    return joint_ranks(keys)[1].tolist()


def reference_edge_figure_codes(points, graph, eps: float = EPS_EQ) -> dict:
    """iterprune.edge_figure_codes one arc at a time: the figure points
    and masks from the graph's adjacency lists, one frame call per base
    vector, and per-arc coordinate products."""
    coord_pop: list = []
    prepared: dict = {}
    arcs = list(map(tuple, graph.arc_rows.tolist()))
    for arc in arcs:
        u, v = arc
        masks: dict = {u: 1}
        for a in graph.out_rows(v).tolist():
            masks[a[1]] = masks.get(a[1], 0) | 2
        for a in graph.in_rows(u).tolist():
            if a[0] != v:
                masks[a[0]] = masks.get(a[0], 0) | 4
        idxs = sorted(masks)
        masks = [masks[i] for i in idxs]
        rel = points[idxs] - points[v]
        variants = []
        for a in graph.out_rows(v).tolist():
            if a[1] == u:
                continue
            f = frame([-points[v], points[u] - points[v],
                       points[a[1]] - points[v]])
            if f is None:
                continue
            variants.append(("f", len(coord_pop), len(idxs)))
            coord_pop.extend((rel @ f.T).ravel())
        if not variants:
            f = frame([-points[v], points[u] - points[v]])
            c12, c34 = rel @ f[:2].T, rel @ f[2:].T
            rho = np.hypot(c34[:, 0], c34[:, 1])
            theta = wrap_angle(np.arctan2(c34[:, 1], c34[:, 0]))
            start = len(coord_pop)
            coord_pop.extend(c12.ravel())
            coord_pop.extend(rho)
            variants.append(("p", start, len(idxs), rho > 1e-9, theta))
        prepared[arc] = (masks, variants)
    cids = tolerance_cluster(coord_pop, eps).ids
    codes: dict = {}
    planar: list = []
    for arc in arcs:
        masks, variants = prepared[arc]
        if variants[0][0] == "p":
            _, start, m, on, theta = variants[0]
            flat = [(int(cids[start + 2 * i]), int(cids[start + 2 * i + 1]),
                     int(cids[start + 2 * m + i]), masks[i]) for i in range(m)]
            axial = tuple(sorted(f for f, o in zip(flat, on) if not o))
            planar.append((arc, axial,
                           (theta[on], [f for f, o in zip(flat, on) if o])))
            continue
        codes[arc] = min(
            ("f", tuple(sorted(tuple(int(c) for c in cids[s + 4 * i:s + 4 * i + 4])
                               + (masks[i],) for i in range(m))))
            for _, s, m in variants)
    angular = [c for _, _, c in planar if c[1]]
    rows = iter(canonical_axes(
        [t for theta, _ in angular for t in theta],
        [f for _, flat in angular for f in flat],
        [len(flat) for _, flat in angular], THETA_TOL)[2].tolist())
    for arc, axial, (_, labels) in planar:
        codes[arc] = ("p", axial, tuple(next(rows)) if labels else ())
    return codes


def reference_successor_angles(points, graph, eps: float = EPS_EQ) -> tuple:
    """iterprune.successor_angles one angle at a time, with arcs as tuples:
    the (arc, out-arc) pairs in sorted order, their class ids and the class
    minima."""
    pairs, population = [], []
    for u, v in map(tuple, graph.arc_rows.tolist()):
        base = points[u] - points[v]
        for a in map(tuple, graph.out_rows(v).tolist()):
            if a[1] == u:
                continue
            leg = points[a[1]] - points[v]
            c = float(base @ leg) / (np.linalg.norm(base) * np.linalg.norm(leg))
            pairs.append(((u, v), a))
            population.append(math.acos(min(1.0, max(-1.0, c))))
    clu = tolerance_cluster(population, eps)
    return pairs, clu.ids.tolist(), clu.reps


def mark_circle(pu, pv, delta: float, alpha: float) -> tuple:
    """(center, f1, f2) of the mark circle of the arc from pu to pv: the
    circle's points are center + r (cos theta f1 + sin theta f2)."""
    q = pu - pv
    r1, r2, f1, f2 = frame([pv, q], 1e-12)
    x = 1.0 - delta * delta / 2.0
    y = (float(q @ pv) + delta * delta * math.cos(alpha) - x * float(q @ r1)) \
        / float(q @ r2)
    return x * r1 + y * r2, f1, f2


def reference_mark_figure(points, arc, succ_arcs, pred_arcs, delta: float,
                          alpha: float) -> tuple:
    """The mark figure of one arc from arc tuples, as iterprune.mark_figures
    builds it for all arcs: (thetas, roles, successor at, predecessor at)
    per merged position, None where a position holds no such arc.  Marks
    are visited by angle, so the last one at a position wins."""
    pu, pv = points[arc[0]], points[arc[1]]
    center, f1, f2 = mark_circle(pu, pv, delta, alpha)
    d = pv - pu
    marks = [(points[a[1]], 0, a) for a in succ_arcs]
    marks += [(points[a[0]] - (2.0 * (points[a[0]] @ d) / (d @ d)) * d, 1, a)
              for a in pred_arcs]
    th = wrap_angle([math.atan2(float((m - center) @ f2),
                                float((m - center) @ f1)) for m, _, _ in marks])
    pos = circular_cluster(th, THETA_TOL)
    roles: list = [None] * pos.count
    at: list = [[None] * pos.count, [None] * pos.count]
    for i in np.argsort(th, kind="stable"):
        k, (_, role, a) = pos.ids[i], marks[i]
        roles[k] = role if roles[k] in (None, role) else 2
        at[role][k] = a
    return pos.reps, roles, at[0], at[1]


def augmenting_match(cand: list) -> bool:
    """Whether every row can take a distinct column of its candidate list,
    by augmenting paths (Kuhn's algorithm)."""
    owner: dict = {}

    def augment(i, seen) -> bool:
        for j in cand[i]:
            if j not in seen:
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(cand)))


def reference_match_multisets(x, y, eps, lx, ly) -> bool:
    """geom.match_multisets for int labels, as a ball count per point: a
    second query finds the one candidate of points that have one, and the
    rest are matched by augmenting paths on the free candidates."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        return False
    if len(x) == 0:
        return True
    tree = cKDTree(y)
    num = tree.query_ball_point(x, r=eps, return_length=True)
    if not num.all():
        return False
    one = np.flatnonzero(num == 1)
    _, hit = tree.query(x[one], distance_upper_bound=np.nextafter(2 * eps, 3))
    used = np.zeros(len(y), dtype=bool)
    used[hit] = True
    if used.sum() < len(one) or (lx[one] != ly[hit]).any():
        return False
    rest = np.flatnonzero(num > 1)
    cand = tree.query_ball_point(x[rest], r=eps)
    return augmenting_match([[j for j in c if not used[j] and lx[i] == ly[j]]
                             for i, c in zip(rest.tolist(), cand)])


__all__ = ["augmenting_match", "chiral_helix", "dense_ranks", "mark_circle", "pluecker_distance",
           "random_rotation", "rebuilt_step", "reference_edge_figure_codes",
           "reference_mark_figure", "reference_match_multisets",
           "reference_successor_angles", "rot3", "snub_24_cell", "step_angles",
           "two_helices"]
