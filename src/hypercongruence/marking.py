"""Marking points on families of great circles.

A family is an (m, 2, 4) stack of orthonormal circle bases; a family
returned is in the canonical order of its Pluecker rows (``plueckers``).
A pair of circles that is not Clifford parallel has a unique closest
antipodal point pair on each circle; those four marks are congruence
invariants of the pair.  Clifford-parallel pairs have no such marks, but a
class of them is one Hopf bundle, whose base points (``circle_halves``)
are rigid enough to condense.  The loop below interleaves the two: it
marks across the closest-pair graph of the circles (as antipodal Pluecker
points on the 5-sphere) where possible, and merges plus condenses parallel
classes on their base points where not.  It yields its stage keys and
returns marker points on the original circles or a few representatives.

Classes always share one chirality; the class structure is pruned by the
least frequent class size so congruent inputs stay in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import (EPS_EQ, CONSTANTS, HOPF_EPS, MARK_EPS, Stalled,
                   circle_halves, circle_of_halves, mark_pairs, parallel,
                   pluecker_sorted, plueckers)
from .condense import (component_ids, members_by_id, merge_unit_points,
                       prune_by_key)
from .cpgraph import closest_pair_graph
from .sphere import condense_sphere


@dataclass
class Markers:
    """Marker points harvested from non-parallel circle pairs."""

    points: np.ndarray


@dataclass
class FewCircles:
    """A circle family already small enough to anchor directly: an (m, 2, 4)
    stack of bases in Pluecker order."""

    circles: np.ndarray


def _closest_mates(idx: int, mates, plv: np.ndarray, eps: float) -> list:
    """The class mates nearest to circle idx on the Pluecker sphere, every
    one within eps of the nearest distance: breaking such a tie by the
    coordinates would not commute with rotations.  No mates give []."""
    mates = np.asarray(mates, dtype=int)
    m = plv[mates]
    d = np.minimum(np.linalg.norm(m - plv[idx], axis=1),
                   np.linalg.norm(m + plv[idx], axis=1))
    return mates[d <= d.min(initial=np.inf) + eps].tolist()


def mark_circles(circles, eps: float = EPS_EQ,
                 few_cap: int = CONSTANTS.few_circles_cap):
    """Mark points on a circle family, or condense it, yielding (stage, key)
    pairs; an empty family raises ValueError at the call.

    It returns Markers (the marks of the non-parallel pairs) or
    FewCircles (at most ``few_cap`` circles, or the family of a round that
    found no pair to mark or made no progress).  ``few_cap`` exists so small
    instances can exercise the marking path; the default is the packing
    bound under which a stalled family must already have dropped.
    """
    circles = np.asarray(circles, dtype=float)
    if not len(circles):
        raise ValueError("empty circle family")
    return _mark_steps(circles, eps, few_cap)


def _mark_steps(circles: np.ndarray, eps: float, few_cap: int):
    """The marking loop of :func:`mark_circles`."""
    # M1: singleton classes; cls holds the class id of every circle, dense
    # and in order of each class's first circle
    cls = np.arange(len(circles))
    chir = None

    # (class count, circle count) falls lexicographically on every pass:
    # a condensing round that lowers neither leaves the loop for M3
    while True:
        # M2: keep only the circles of classes of the least frequent size
        pruned = prune_by_key(np.bincount(cls))
        yield "M2", pruned.histogram
        keep = np.isin(cls, pruned.indices)
        circles = circles[keep]
        cls = np.unique(cls[keep], return_inverse=True)[1]
        n_classes = len(pruned.indices)

        # M3: few circles left
        if len(circles) <= few_cap:
            break

        # M4: a trivial partition carries no chirality
        if n_classes == len(circles):
            chir = None
        yield "M4", str(chir)

        # M5: closest pairs on the Pluecker sphere
        plv = plueckers(circles)
        h = closest_pair_graph(plv, antipodal=True, eps=eps)
        yield "M5", len(h.edges)

        # M6: split edges by pair chirality; BOTH edges are in e_l and e_r
        halves = circle_halves(circles)
        right, left = (parallel(x, h.edges, eps) for x in halves)
        e_l, e_r, e_n = (h.edges[m].tolist()
                         for m in (left, right, ~(left | right)))
        yield "M6", (len(e_l), len(e_r), len(e_n))

        # M7: non-parallel closest pairs mark directly
        if e_n:
            yield "M7", len(e_n)
            return (yield from _mark(circles, e_n, eps))

        # M8/M9: replace a parallel edge endpoint c by its nearest class
        # mates k of the opposite sense.  k shares one half with c and the
        # edge (c, d) the other, so (k, d) is parallel only where k or d is
        # the circle completely orthogonal to c, which shares both: M12 stalls
        cross = {"right": e_l, "left": e_r}[chir] if chir else None
        if cross:
            pairs = set()
            for edge in cross:
                for c, d in (edge, edge[::-1]):
                    mates = np.setdiff1d(np.flatnonzero(cls == cls[c]), edge)
                    pairs.update(frozenset((k, d))
                                 for k in _closest_mates(c, mates, plv, eps))
            pairs = sorted(tuple(sorted(p)) for p in pairs)
            if not pairs:  # no mates off the edges: stalled, as at M10/M11
                break
            yield "M8" if chir == "right" else "M9", len(pairs)
            return (yield from _mark(circles, pairs, eps))

        # M10/M11: merge classes along parallel edges (e_n is empty), and
        # condense each on its base points, the other halves signed by the
        # shared half ref of any member (the joint sign cancels)
        side, edges = ("left", e_l) if e_l else ("right", e_r)
        shared, base = halves[::-1] if side == "left" else halves
        groups = members_by_id(component_ids(n_classes, cls[edges])[cls])
        fibers: list = []
        for members in groups:
            ref = shared[members[0]]
            signed = base[members] * np.sign(shared[members] @ ref)[:, None]
            s = condense_sphere(signed, eps=HOPF_EPS)
            fibers.append(circle_of_halves(*((s, ref) if side == "left"
                                             else (ref, s))))
        sizes = list(map(len, fibers))
        if (len(groups), sum(sizes)) >= (n_classes, len(circles)):
            # stalled above few_cap: the 2+2 reduction tries every circle
            break
        yield "M10" if side == "left" else "M11", (n_classes, len(groups))
        circles = np.concatenate(fibers)
        cls = np.repeat(np.arange(len(groups)), sizes)
        chir = side
    # M3: the family in Pluecker order, for the 2+2 reduction
    yield "M3", len(circles)
    return FewCircles(pluecker_sorted(circles))


def _mark(circles, pairs, eps: float):
    """M12: four closest points for every pair; equal principal angles stall."""
    i, j = np.unique(np.sort(pairs, axis=1), axis=0).T
    marks, ok = mark_pairs(circles[i], circles[j], eps)
    if not ok.all():
        raise Stalled("marked pair has equal principal angles")
    pts = merge_unit_points(marks, MARK_EPS)
    pts = pts[np.lexsort(pts.T[::-1])]
    yield "M12", len(pts)
    return Markers(pts)
