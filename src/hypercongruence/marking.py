"""Marking points on families of great circles.

A pair of circles that is not Clifford parallel has a unique closest
antipodal point pair on each circle; those four marks are congruence
invariants of the pair.  Clifford-parallel pairs have no such marks, but
they live in a common Hopf bundle whose base-sphere image is rigid enough
to condense.  The loop below interleaves the two: it marks across the
closest-pair graph of the circles (as antipodal Pluecker points on the
5-sphere) where possible, and merges plus condenses parallel classes
through their bundle maps where not.  It returns either marker points on
the original circles or a small family of representative circles.

Classes always share one chirality; the class structure is pruned by the
least frequent class size so congruent inputs stay in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import (EPS_EQ, CONSTANTS, Chirality, chirality, frame,
                   hopf_fiber, hopf_image, mark_pair, pluecker)
from .condense import (component_ids, group_means, members_by_id, merge_close,
                       prune_by_key)
from .cpgraph import closest_pair_graph
from .sphere import condense_sphere


@dataclass
class Markers:
    """Marker points harvested from non-parallel circle pairs."""

    points: np.ndarray


@dataclass
class FewCircles:
    """A circle family already small enough to anchor directly."""

    circles: list


def _plueckers(circles) -> np.ndarray:
    return np.array([pluecker(c) for c in circles])


def _dedupe_points(points: np.ndarray, eps: float) -> np.ndarray:
    reps = group_means(points, merge_close(points, eps))[0]
    reps /= np.linalg.norm(reps, axis=1, keepdims=True)
    return reps[np.lexsort(reps.T[::-1])]


def _closest_mate(idx: int, mates, plv: np.ndarray):
    """Nearest class mate on the Pluecker sphere, ties by lexicographic order."""
    def rank(k):
        d = min(np.linalg.norm(plv[idx] - plv[k]), np.linalg.norm(plv[idx] + plv[k]))
        return (d, tuple(plv[k]))
    return min(mates, key=rank)


def mark_circles(circles, eps: float = EPS_EQ,
                 few_cap: int = CONSTANTS.few_circles_cap):
    """Mark points on a circle family, or condense it; returns (result, keys).

    The result is Markers (at most 4 points for each of at most 25 times
    the family size many pairs) or FewCircles (at most ``few_cap``
    circles).  ``few_cap`` exists so small instances can exercise the
    marking path; the default is the packing bound under which a stalled
    family must already have dropped.
    """
    circles = list(circles)
    if not circles:
        raise ValueError("empty circle family")
    keys: list = []
    # M1: singleton classes
    classes = [[i] for i in range(len(circles))]
    chir = None

    for _ in range(64):
        # M2: keep only classes of the least frequent size
        sizes = [len(c) for c in classes]
        pruned = prune_by_key(sizes)
        keys.append(("M2", pruned.histogram))
        if pruned.progressed:
            classes = [classes[i] for i in pruned.indices]
        kept = sorted(i for c in classes for i in c)
        circles = [circles[i] for i in kept]
        remap = {old: new for new, old in enumerate(kept)}
        classes = [[remap[i] for i in c] for c in classes]

        # M3: few circles left
        if len(circles) <= few_cap:
            keys.append(("M3", len(circles)))
            order = np.lexsort(_plueckers(circles).T[::-1])
            return FewCircles([circles[i] for i in order]), keys

        # M4: a trivial partition carries no chirality
        if all(len(c) == 1 for c in classes):
            chir = None
        keys.append(("M4", str(chir)))

        # M5: closest pairs on the Pluecker sphere
        plv = _plueckers(circles)
        h = closest_pair_graph(plv, antipodal=True, eps=eps)
        keys.append(("M5", len(h.edges)))
        if h.max_degree() > CONSTANTS.kissing_5_upper:
            raise AssertionError("circle kissing number exceeded on the 5-sphere")

        # M6: split edges by pair chirality
        e_l, e_r, e_n = [], [], []
        par_deg = {"left": np.zeros(len(circles), int),
                   "right": np.zeros(len(circles), int)}
        for i, j in h.edges:
            ch = chirality(circles[i], circles[j], eps)
            if ch is Chirality.NOT_ISOCLINIC:
                e_n.append((i, j))
                continue
            if ch in (Chirality.LEFT, Chirality.BOTH):
                e_l.append((i, j))
                par_deg["left"][[i, j]] += 1
            if ch in (Chirality.RIGHT, Chirality.BOTH):
                e_r.append((i, j))
                par_deg["right"][[i, j]] += 1
        keys.append(("M6", (len(e_l), len(e_r), len(e_n))))
        for side in ("left", "right"):
            if par_deg[side].max() > CONSTANTS.kissing_2:
                raise AssertionError(f"a circle has more than "
                                     f"{CONSTANTS.kissing_2} {side}-parallel "
                                     "closest neighbors")

        # M7: non-parallel closest pairs mark directly
        if e_n:
            keys.append(("M7", len(e_n)))
            return _mark(circles, e_n, len(circles), eps, keys)

        # M8/M9: replace a parallel edge endpoint by its nearest class mate
        # of the opposite sense; the replacement cannot be parallel to the
        # other endpoint, or parallelism of both senses would be transitive
        # through it
        cross = {"right": e_l, "left": e_r}[chir] if chir else None
        if cross:
            class_of = {}
            for c in classes:
                for i in c:
                    class_of[i] = c
            pairs = set()
            for edge in cross:
                for c, d in (edge, edge[::-1]):
                    mates = [k for k in class_of[c] if k != c and k != d]
                    if not mates:
                        continue
                    pairs.add(frozenset((_closest_mate(c, mates, plv), d)))
            pairs = sorted(tuple(sorted(p)) for p in pairs)
            if not pairs:
                raise AssertionError("no usable cross pairs from parallel edges")
            if len(pairs) > CONSTANTS.pair_fanout * len(circles):
                raise AssertionError("cross-pair fanout bound exceeded")
            for i, j in pairs:
                if chirality(circles[i], circles[j], eps) is not Chirality.NOT_ISOCLINIC:
                    raise AssertionError("constructed pair is Clifford parallel")
            keys.append(("M8" if chir == "right" else "M9", len(pairs)))
            return _mark(circles, pairs, len(circles), eps, keys)

        # M10/M11: merge classes along parallel edges, condense each class
        # on the base sphere of its bundle
        side, edges = ("left", e_l) if e_l else ("right", e_r)
        if not edges:
            raise AssertionError("closest-pair graph has no usable edges")
        cls_idx = {i: ci for ci, c in enumerate(classes) for i in c}
        merged = component_ids(len(classes),
                               [(cls_idx[i], cls_idx[j]) for i, j in edges])
        before = (len(classes), len(circles))
        new_circles: list = []
        new_classes: list = []
        for group in members_by_id(merged):
            members = sorted(i for ci in group for i in classes[ci])
            c0 = min((circles[i] for i in members),
                     key=lambda c: tuple(pluecker(c)))
            f0 = frame(c0.basis)
            images = np.array([hopf_image(f0, circles[i].basis[0], side)
                               for i in members])
            reps = condense_sphere(images, eps=1e-7)
            fibers = [hopf_fiber(f0, s, side) for s in reps]
            new_classes.append(list(range(len(new_circles),
                                          len(new_circles) + len(fibers))))
            new_circles.extend(fibers)
        if (len(new_classes), len(new_circles)) >= before:
            raise AssertionError("circle condensing stalled above the "
                                 "packing bound")
        keys.append(("M10" if side == "left" else "M11",
                     (before[0], len(new_classes))))
        circles, classes, chir = new_circles, new_classes, side
    raise AssertionError("circle condensing failed to terminate")


def _mark(circles, pairs, family_size: int, eps: float, keys: list):
    """M12: four closest points for every non-parallel pair."""
    marks = []
    for i, j in sorted(tuple(sorted(p)) for p in pairs):
        on_c, on_d = mark_pair(circles[i], circles[j], eps)
        marks.append(on_c)
        marks.append(on_d)
    pts = _dedupe_points(np.vstack(marks), 1e-7)
    if len(pts) > CONSTANTS.marks_per_pair * CONSTANTS.pair_fanout * family_size:
        raise AssertionError("marker count exceeds the fanout bound")
    keys.append(("M12", len(pts)))
    return Markers(pts), keys
