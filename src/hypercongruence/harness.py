"""Brute-force oracle and instance generators.

The oracle decides congruence of tiny sets by exhausting frame images; it
is deliberately independent of the pipeline's machinery so the two can
check each other.  The generators build the structured families that steer
the pipeline through its branches: flat torus grids, orbit helices, Hopf
fiber samples, regular polytopes, and seeded random pairs with recorded
ground truth.
"""

from __future__ import annotations

import math
from itertools import permutations, product
from typing import Optional

import numpy as np

from .condense import TWO_PI
from .geom import (ORACLE_EPS, Verdict, circle_halves, circle_of_halves,
                   frame, match_multisets)

ORACLE_MAX = 10


def _quat_matrices(q: np.ndarray, right: bool) -> np.ndarray:
    a, b, c, d = q
    if right:
        return np.array([[a, -b, -c, -d],
                         [b, a, d, -c],
                         [c, -d, a, b],
                         [d, c, -b, a]])
    return np.array([[a, -b, -c, -d],
                     [b, a, -d, c],
                     [c, d, a, -b],
                     [d, -c, b, a]])


def random_rotation(rng) -> np.ndarray:
    """Uniform random element of SO(4) via two independent unit quaternions."""
    q1, q2 = (q / np.linalg.norm(q)
              for q in (rng.normal(size=4), rng.normal(size=4)))
    return _quat_matrices(q1, right=False) @ _quat_matrices(q2, right=True)


def _spanning_tuple(pts: np.ndarray, eps: float) -> list:
    """Indices of a greedy maximal independent subset, in index order."""
    idxs, basis = [], []
    for i, p in enumerate(pts):
        w = p.copy()
        for r in basis:
            w = w - (w @ r) * r
        nw = np.linalg.norm(w)
        if nw > eps:
            idxs.append(i)
            basis.append(w / nw)
        if len(idxs) == 3:
            break
    return idxs


def oracle_congruent(a_raw, b_raw, allow_reflection: bool = False,
                     eps: float = ORACLE_EPS) -> Verdict:
    """Exhaustive congruence decision for sets of at most 10 points.

    A spanning tuple of the first set is matched against every same-Gram
    ordered tuple of the second; each match determines a unique candidate
    rotation (and, with allow_reflection, a reflection), which is verified
    on the full sets.  Low-rank sets need no extra cases: any isometry of
    a proper subspace extends to a 4D rotation through the orthogonal
    complement, so enumerating tuple images is already complete.
    """
    a = np.asarray(a_raw, dtype=float).reshape(-1, 4)
    b = np.asarray(b_raw, dtype=float).reshape(-1, 4)
    if len(a) > ORACLE_MAX or len(b) > ORACLE_MAX:
        raise ValueError(f"oracle is limited to {ORACLE_MAX} points")
    if len(a) != len(b) or len(a) == 0:
        return Verdict.no("size")
    ca, cb = a.mean(axis=0), b.mean(axis=0)
    an, bn = a - ca, b - cb

    def finish(r, reflected=False):
        return Verdict(True, np.asarray(r, float), cb - ca @ np.asarray(r).T,
                       None, reflected)

    tup = _spanning_tuple(an, eps)
    rank = len(tup)
    if rank == 0:
        if np.linalg.norm(bn, axis=1).max() <= eps:
            return finish(np.eye(4))
        return Verdict.no("rank")
    fa = frame(an[tup], eps)
    gram_a = an[tup] @ an[tup].T

    candidates = []
    for img in permutations(range(len(bn)), rank):
        pts = bn[list(img)]
        if np.max(np.abs(pts @ pts.T - gram_a)) > 100 * eps:
            continue
        fb = frame(pts, eps)
        if fb is None:
            continue
        candidates.append(fb.T @ fa)
        if allow_reflection and rank >= 3:
            fb_m = np.vstack([fb[:rank], -fb[rank:]])
            candidates.append(fb_m.T @ fa)
    for r in candidates:
        if match_multisets(an @ r.T, bn, 100 * eps):
            if np.linalg.det(r) > 0:
                return finish(r)
            if allow_reflection:
                return finish(r, reflected=True)
    return Verdict.no("exhausted")


def gen_congruent_pair(n: int, seed: int) -> tuple:
    """A random n-point set, a rotated+translated+permuted copy, and the
    ground-truth (rotation, translation)."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 4))
    r = random_rotation(rng)
    t = rng.normal(size=4)
    b = (a @ r.T + t)[rng.permutation(n)]
    return a, b, r, t


def gen_torus_grid(p: int, q: int, r1: float) -> np.ndarray:
    """The product of a regular p-gon of radius r1 and a regular q-gon of
    radius sqrt(1 - r1^2) in orthogonal planes; p = q = 4 with r1 = 1/sqrt(2)
    gives the 4-cube."""
    if p < 3 or q < 3:
        raise ValueError("need p, q >= 3")
    if not 0.0 < r1 < 1.0:
        raise ValueError("need 0 < r1 < 1")
    r2 = math.sqrt(1.0 - r1 * r1)
    i = np.repeat(np.arange(p), q)
    j = np.tile(np.arange(q), p)
    phi, psi = i * TWO_PI / p, j * TWO_PI / q
    return np.c_[r1 * np.cos(phi), r1 * np.sin(phi),
                 r2 * np.cos(psi), r2 * np.sin(psi)]


def gen_orbit_helix(ell: int, k: int, r1: float,
                    seed: Optional[int] = None) -> np.ndarray:
    """The orbit of one point under the rotation by (2*pi/ell, 2*pi*k/ell)
    in two orthogonal invariant planes: a closed helix of ell points."""
    if ell < 8:
        raise ValueError("need ell >= 8")
    if not 1 <= k < ell or math.gcd(k, ell) != 1:
        raise ValueError("need 1 <= k < ell coprime to ell for a single cycle")
    if not 0.0 < r1 < 1.0:
        raise ValueError("need 0 < r1 < 1")
    r2 = math.sqrt(1.0 - r1 * r1)
    j = np.arange(ell)
    phi, psi = j * TWO_PI / ell, j * k * TWO_PI / ell
    pts = np.c_[r1 * np.cos(phi), r1 * np.sin(phi),
                r2 * np.cos(psi), r2 * np.sin(psi)]
    if seed is not None:
        pts = pts @ random_rotation(np.random.default_rng(seed)).T
    return pts


def gen_hopf_circles(m: int, samples: int, seed: int) -> tuple:
    """Points sampled from m circles of one right Hopf bundle.

    Returns (points, circles), circles an (m, 2, 4) stack of bases.  The
    circles share the half sigma of a random circle and lie over random
    base points s, as ``circle_of_halves(sigma, s)``; all are pairwise
    Clifford parallel, and two at angle (a, a) lie over base points at
    geodesic distance 2a.
    """
    if m < 1 or samples < 3:
        raise ValueError("need m >= 1 and samples >= 3")
    rng = np.random.default_rng(seed)
    sigma = circle_halves(random_rotation(rng)[None, :2])[0][0]
    base = rng.normal(size=(m, 3))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    circles = circle_of_halves(sigma, base)
    th = (rng.uniform(0.0, TWO_PI, size=(m, 1))
          + np.arange(samples) * TWO_PI / samples)
    pts = np.stack([np.cos(th), np.sin(th)], -1) @ circles
    return pts.reshape(-1, 4), circles


_PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _cell600() -> np.ndarray:
    verts = set()
    for i in range(4):
        for s in (1.0, -1.0):
            v = [0.0] * 4
            v[i] = s
            verts.add(tuple(v))
    for signs in product((0.5, -0.5), repeat=4):
        verts.add(signs)
    evens = [p for p in permutations(range(4)) if _perm_parity(p)]
    for perm in evens:
        for s1, s2, s3 in product((1, -1), repeat=3):
            base = [s1 * _PHI / 2, s2 * 0.5, s3 / (2 * _PHI), 0.0]
            verts.add(tuple(base[j] for j in perm))
    return np.array(sorted(verts))


def _perm_parity(p) -> bool:
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
              if p[i] > p[j])
    return inv % 2 == 0


def gen_regular_polytope(name: str) -> np.ndarray:
    """Vertex sets of the standard regular 4-polytopes at circumradius 1
    (edge-transitive inputs for the structured pipeline branches)."""
    key = name.lower().replace("_", "-")
    if key in ("simplex", "5-cell"):
        # 5 unit vectors with pairwise dot -1/4
        pts = np.zeros((5, 4))
        for i in range(4):
            r = math.sqrt(1.0 - np.sum(pts[i, :i] ** 2))
            pts[i, i] = r
            dot = -0.25
            for j in range(i + 1, 5):
                pts[j, i] = (dot - pts[j, :i] @ pts[i, :i]) / r
        return pts
    if key in ("cross", "orthoplex", "16-cell"):
        return np.concatenate([np.eye(4), -np.eye(4)])
    if key in ("4-cube", "tesseract", "8-cell"):
        return np.array(list(product((0.5, -0.5), repeat=4)))
    if key == "24-cell":
        pts = []
        for i in range(4):
            for j in range(i + 1, 4):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = np.zeros(4)
                        v[i], v[j] = si / math.sqrt(2), sj / math.sqrt(2)
                        pts.append(v)
        return np.array(pts)
    if key == "600-cell":
        return _cell600()
    raise ValueError(f"unknown polytope {name!r}")
