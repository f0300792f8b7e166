"""Top-level congruence decision for finite point sets in 4-space.

congruence_test_4d ties the stages together: centering both sets on their
centroids, merging coincident points into multiplicities, radius pruning,
merging the coincident directions of the chosen radius shell (both merges
by condense.merge_points), iterative pruning on the 3-sphere, the mirror
and orbit condensing steps, circle marking, and the two dimension
reductions.  When the radius classes of one point span a 3-space, they pin
the rotation by a Kabsch fit, and no later stage runs.  Both inputs are
processed in lockstep; every stage emits comparison keys built from counts
and cluster ranks only, and the first key divergence decides NotCongruent.
Iterative pruning, the mirror reduction and marking are lockstep key by
key: the two sides' key generators advance together and both stop at the
first pair of keys that differ.
Positive verdicts always carry a rotation verified against the original
(normalized) sets, so no amount of condensing of the working sets can make
a false positive.  A stall (geom.Stalled) falls back to the 1+3 reduction
on the restart's shell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .circles import Anchors, CondensedPoints, mirror_reduce, orbit_circles
from .condense import (joint_cluster, joint_ranks, merge_points,
                       merge_unit_points, prune_by_key)
from .geom import (CONSTANTS, EPS_EQ, PointSet4, Stalled, Verdict, key_tol,
                   match_tol, pluecker_sorted, plueckers, verify_rotation)
from .iterprune import MirrorSymmetric, WellSeparated, next_step, prune_steps
from .lowdim import one_plus_three_reduce, pinned_rotation
from .marking import FewCircles, mark_circles
from .torus import two_plus_two_reduce

MIRROR_X1 = np.diag([-1.0, 1.0, 1.0, 1.0])


@dataclass
class PipelineOptions:
    """Knobs for congruence_test_4d.

    delta0 and few_cap default to the production constants; small
    constructed instances lower them to exercise the deep condensing paths.
    """

    eps_eq: float = EPS_EQ
    allow_reflection: bool = False
    delta0: float = CONSTANTS.delta0
    few_cap: int = CONSTANTS.few_circles_cap

    def __post_init__(self):
        if not 0 < self.eps_eq < np.inf:
            raise ValueError("eps_eq must be positive and finite")
        # unit vectors are at most 2 apart, so delta0 >= 2 would make an
        # antipodal pair a closest pair
        if not -np.inf < self.delta0 < 2:
            raise ValueError("delta0 must be finite and below 2")
        if self.few_cap < 1:
            raise ValueError("few_cap must be at least 1")


def _unique_circles(circles, eps: float) -> np.ndarray:
    """The stack of circles in Pluecker order, keeping the first of every
    class of Pluecker rows at most key_tol(eps) apart."""
    circles = pluecker_sorted(circles)
    return circles[merge_points(plueckers(circles), key_tol(eps))[2]]


def _lockstep(steps_a, steps_b) -> tuple:
    """(exit_a, exit_b, keys_a, keys_b): two stage-key generators advanced
    one key at a time, up to the first pair of keys that differ, a side
    that has ended against one that has not included.  After such a pair
    both exits are None and the key lists end with it."""
    keys_a, keys_b = [], []
    while True:
        (key_a, ex_a), (key_b, ex_b) = next_step(steps_a), next_step(steps_b)
        if key_a is None and key_b is None:
            return ex_a, ex_b, keys_a, keys_b
        keys_a += [key_a] if key_a is not None else []
        keys_b += [key_b] if key_b is not None else []
        if key_a != key_b:
            return None, None, keys_a, keys_b


def congruence_test_4d(a_raw, b_raw, opts: Optional[PipelineOptions] = None,
                       trace_sink: Optional[list] = None,
                       labels_a=None, labels_b=None) -> Verdict:
    """Decide whether two point multisets in 4-space are congruent by an
    orientation-preserving isometry; with allow_reflection also try the
    mirrored second set.  Returns a Verdict whose rotation and translation
    satisfy B ~ A @ rotation.T + translation as labeled multisets.

    Optional labels restrict matchings to equal-label points.  Every
    coordinate must be finite.
    """
    opts = opts or PipelineOptions()
    a = np.asarray(a_raw, dtype=float).reshape(-1, 4)
    b = np.asarray(b_raw, dtype=float).reshape(-1, 4)
    if len(a) != len(b):
        raise ValueError(f"point counts differ: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("need at least one point")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("coordinates must be finite")
    for lab, pts in ((labels_a, a), (labels_b, b)):
        if lab is not None and len(lab) != len(pts):
            raise ValueError("label count does not match point count")
    if (labels_a is None) != (labels_b is None):
        raise ValueError("either both sets are labeled or neither is")
    ca, cb = a.mean(axis=0), b.mean(axis=0)
    an, bn = a - ca, b - cb
    v = _attempt(an, bn, opts, trace_sink, labels_a, labels_b)
    if v.congruent:
        return Verdict.yes(v.rotation, cb - ca @ v.rotation.T)
    if opts.allow_reflection:
        v2 = _attempt(an, bn @ MIRROR_X1, opts, trace_sink, labels_a, labels_b)
        if v2.congruent:
            s = MIRROR_X1 @ v2.rotation
            return Verdict.yes(s, cb - ca @ s.T, reflected=True)
    return v


def _attempt(an: np.ndarray, bn: np.ndarray, opts: PipelineOptions,
             sink: Optional[list], labels_a=None, labels_b=None) -> Verdict:
    """Decide the centered sets an, bn.  The reductions see coincident
    points merged into their means, so when any merged, a positive verdict
    must also map an onto bn."""
    label_names, la, lb = (None, np.zeros(len(an), dtype=int),
                           np.zeros(len(bn), dtype=int)) \
        if labels_a is None else joint_ranks(labels_a, labels_b)
    da, db = (merge_points(an, opts.eps_eq, la),
              merge_points(bn, opts.eps_eq, lb))
    v = _reduce(da, db, la, lb, label_names, opts, sink)
    if v.congruent and (da[0] is not an or db[0] is not bn) and not \
            verify_rotation(PointSet4(an, la), PointSet4(bn, lb), v.rotation):
        return Verdict.no("merged points")
    return v


def _reduce(da: tuple, db: tuple, la, lb, label_names: Optional[list],
            opts: PipelineOptions, sink: Optional[list]) -> Verdict:
    """Decide in lockstep the merge_points results da, db of points with
    int labels la, lb; label_names names the labels in a trace, None when
    there are none."""
    (ua, cnt_a, first_a), (ub, cnt_b, first_b) = da, db
    eps = opts.eps_eq

    def check(stage: str, key_a, key_b, name=None) -> bool:
        """Record a stage's key pair, named where they hold joint ranks;
        True when the two sides agree."""
        if sink is not None:
            sink.append((stage, name(key_a), name(key_b)) if name else
                        (stage, key_a, key_b))
        return key_a == key_b

    def lockstep(stage: str, steps_a, steps_b) -> list:
        """Record and return _lockstep's exits, None once keys differ."""
        *exits, keys_a, keys_b = _lockstep(steps_a, steps_b)
        check(stage, *((ex and type(ex).__name__, tuple(keys))
                       for ex, keys in zip(exits, (keys_a, keys_b))))
        return exits

    def check_counts(stage: str, ranks_a, ranks_b, bound: int, name) -> bool:
        """True when two sides' joint ranks below bound have equal class
        sizes; the histograms, named by name, are built only for a trace."""
        if sink is not None:
            sink.append((stage, *(name(prune_by_key(r).histogram)
                                  for r in (ranks_a, ranks_b))))
        return np.array_equal(np.bincount(ranks_a, minlength=bound),
                              np.bincount(ranks_b, minlength=bound))

    # a token is the multiplicity, or (multiplicity, label), ranked jointly
    toks, mult_a, mult_b = joint_ranks(np.column_stack((cnt_a, la[first_a])),
                                       np.column_stack((cnt_b, lb[first_b])))
    names = [c if label_names is None else (c, label_names[k])
             for c, k in toks.tolist()]
    if not check_counts("multiplicity", mult_a, mult_b, len(toks),
                        lambda h: (sum(c for _, c in h),
                                   tuple((names[i], c) for i, c in h))):
        return Verdict.no("multiplicity")
    full_a, full_b = PointSet4(ua, mult_a), PointSet4(ub, mult_b)

    wa, wb = ua, ub
    lab_a, lab_b = mult_a, mult_b

    # every restart works on fewer points than the one before
    while True:
        norm_a = np.linalg.norm(wa, axis=1)
        norm_b = np.linalg.norm(wb, axis=1)
        org_a, org_b = norm_a <= eps, norm_b <= eps
        if not check("origin",
                     (int(org_a.sum()), tuple(np.sort(lab_a[org_a]).tolist())),
                     (int(org_b.sum()), tuple(np.sort(lab_b[org_b]).tolist())),
                     lambda k: (k[0], tuple(names[i] for i in k[1]))):
            return Verdict.no("origin class")
        if org_a.all():
            # no direction information anywhere in the working set
            if verify_rotation(full_a, full_b, np.eye(4)):
                return Verdict.yes(np.eye(4), np.zeros(4))
            return Verdict.no("coincident")
        wa, norm_a, lab_a = (np.compress(~org_a, wa, axis=0), norm_a[~org_a],
                             lab_a[~org_a])
        wb, norm_b, lab_b = (np.compress(~org_b, wb, axis=0), norm_b[~org_b],
                             lab_b[~org_b])

        rid_a, rid_b = joint_cluster(norm_a, norm_b, eps)
        keys, rk_a, rk_b = joint_ranks(np.column_stack((lab_a, rid_a)),
                                       np.column_stack((lab_b, rid_b)))
        if not check_counts("radius", rk_a, rk_b, len(keys),
                            lambda h: tuple(((names[keys[k, 0]],
                                              int(keys[k, 1])), c)
                                            for k, c in h)):
            return Verdict.no("radius class")
        counts = np.bincount(rk_a, minlength=len(keys))
        # any congruence maps each one-point class onto its partner, so when
        # those points span a 3-space they pin the rotation, and a failed
        # fit is final
        pinned, s = pinned_rotation(wa, rk_a, wb, rk_b, counts, match_tol(eps))
        if pinned:
            if s is not None and verify_rotation(full_a, full_b, s):
                return Verdict.yes(s, np.zeros(4))
            return Verdict.no("anchor alignment")
        # the rarest radius class, ties to the largest, best-conditioned one
        k = np.lexsort((-keys[:, 1], counts))[0]
        ka, kb = np.flatnonzero(rk_a == k), np.flatnonzero(rk_b == k)
        # distinct shell points can come within eps on the unit sphere
        sa = merge_unit_points(np.take(wa, ka, axis=0) / norm_a[ka, None], eps)
        sb = merge_unit_points(np.take(wb, kb, axis=0) / norm_b[kb, None], eps)

        if len(sa) == 1 or len(sb) == 1:
            return one_plus_three_reduce(full_a, full_b, sa, sb, eps)

        try:
            ex_a, ex_b = lockstep("sphere", prune_steps(sa, eps, opts.delta0),
                                  prune_steps(sb, eps, opts.delta0))
            if ex_a is None:
                return Verdict.no("sphere structure")

            if isinstance(ex_a, WellSeparated):
                return one_plus_three_reduce(full_a, full_b, ex_a.points,
                                             ex_b.points, eps)

            if isinstance(ex_a, MirrorSymmetric):
                res_a, res_b = lockstep(
                    "mirror", mirror_reduce(ex_a.points, ex_a.graph, eps),
                    mirror_reduce(ex_b.points, ex_b.graph, eps))
                if res_a is None:
                    return Verdict.no("mirror structure")
                if isinstance(res_a, Anchors):
                    return one_plus_three_reduce(full_a, full_b, ex_a.points,
                                                 ex_b.points, eps)
                if isinstance(res_a, CondensedPoints):
                    # at most half of the mirror points: a centroid per
                    # component, or two normals per component of >= 4 points
                    wa, wb = res_a.points, res_b.points
                    lab_a, lab_b, names = (np.zeros(len(wa), int),
                                           np.zeros(len(wb), int), [0])
                    continue
                circ_a, circ_b = res_a.circles, res_b.circles
            else:
                cyc_a, ok_a = orbit_circles(ex_a, eps)
                cyc_b, ok_b = orbit_circles(ex_b, eps)
                if not check("orbit", tuple(ok_a), tuple(ok_b)):
                    return Verdict.no("orbit structure")
                circ_a = [c.circle for c in cyc_a]
                circ_b = [c.circle for c in cyc_b]

            circ_a = _unique_circles(circ_a, eps)
            circ_b = _unique_circles(circ_b, eps)
            if not check("circles", len(circ_a), len(circ_b)):
                return Verdict.no("circle count")

            mres_a, mres_b = lockstep(
                "marking", mark_circles(circ_a, eps, opts.few_cap),
                mark_circles(circ_b, eps, opts.few_cap))
            if mres_a is None:
                return Verdict.no("circle structure")

            if isinstance(mres_a, FewCircles):
                p = mres_a.circles[0]
                for q in mres_b.circles:
                    v = two_plus_two_reduce(full_a, full_b, p, q, eps)
                    if v.congruent:
                        return v
                return Verdict.no("plane pair alignment")

            if len(mres_a.points) >= len(wa):
                raise Stalled("marking made no progress")
            wa, wb = mres_a.points, mres_b.points
            lab_a, lab_b, names = (np.zeros(len(wa), int),
                                   np.zeros(len(wb), int), [0])
        except Stalled as stall:
            # any congruence maps the shell onto the other side's
            check("stalled", str(stall), str(stall))
            return one_plus_three_reduce(full_a, full_b, sa, sb, eps)
