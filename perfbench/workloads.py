"""Seeded instance pairs for the benchmark, with ground truth from their
construction.

Every pair is (A, B) with B a rotated, translated and permuted copy of A,
of its mirror image, or of a slightly perturbed A.  The expected verdict
follows from the construction alone: Gaussian clouds, antipodal sets and
orbit helices are chiral, so their mirror images are not congruent to them;
great circles and flat torus grids are achiral, so theirs are; a near-miss
is never congruent.  The generators here are the benchmark's own, so the
program under test receives only the generated coordinates.

Each workload has a size ladder: ``Pair.rung`` indexes it, and the
benchmark fits its scaling exponent over the per-rung totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

TWO_PI = 2.0 * math.pi
MIRROR = np.diag([-1.0, 1.0, 1.0, 1.0])


@dataclass(frozen=True)
class Pair:
    label: str
    rung: int
    a: np.ndarray
    b: np.ndarray
    congruent: bool
    # PipelineOptions.delta0 override; None keeps the production constants
    delta0: Optional[float] = None


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform element of SO(4) from the QR factors of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(4, 4)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def place(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A random rotation and translation of the points, in random order."""
    moved = points @ random_rotation(rng).T + rng.normal(size=4)
    return moved[rng.permutation(len(points))]


def _family(pairs: list, name: str, rung: int, a: np.ndarray, rng,
            mirror_congruent: bool, near: Optional[np.ndarray] = None,
            delta0: Optional[float] = None, congruent: bool = True) -> None:
    """Append the congruent pair (unless congruent=False), the mirror pair
    and, given a perturbed copy, the near-miss pair of one point set."""
    tag = f"{name} n={len(a)}"
    if congruent:
        pairs.append(Pair(f"{tag} congruent", rung, a, place(a, rng), True,
                          delta0))
    pairs.append(Pair(f"{tag} mirror", rung, a, place(a @ MIRROR, rng),
                      mirror_congruent, delta0))
    if near is not None:
        pairs.append(Pair(f"{tag} near-miss", rung, a, place(near, rng),
                          False, delta0))


def _unit_circle(n: int, phase: float) -> np.ndarray:
    th = phase + np.arange(n) * TWO_PI / n
    return np.c_[np.cos(th), np.sin(th), np.zeros(n), np.zeros(n)]


def _on_torus(phi: np.ndarray, psi: np.ndarray, r1: float) -> np.ndarray:
    r2 = math.sqrt(1.0 - r1 * r1)
    return np.c_[r1 * np.cos(phi), r1 * np.sin(phi),
                 r2 * np.cos(psi), r2 * np.sin(psi)]


def _helix(ell: int, k: int, r1: float, phase: np.ndarray) -> np.ndarray:
    """The closed helix of ell points turning 1/ell and k/ell of a
    revolution per step in two orthogonal invariant planes."""
    j = np.arange(ell) * TWO_PI / ell
    return _on_torus(phase[0] + j, phase[1] + k * j, r1)


def _grid(p: int, q: int, r1: float, phase: np.ndarray) -> np.ndarray:
    i, j = np.repeat(np.arange(p), q), np.tile(np.arange(q), p)
    return _on_torus(phase[0] + i * TWO_PI / p, phase[1] + j * TWO_PI / q, r1)


def gauss(rng) -> list:
    """Distinct radii leave one anchor: dedupe, radius pruning and a single
    3D test; the near-miss exits at the radius stage."""
    pairs: list = []
    for rung, n in enumerate((2000, 4000, 8000)):
        a = rng.normal(size=(n, 4))
        near = a.copy()
        d = rng.normal(size=4)
        near[rng.integers(n)] += 1e-3 * d / np.linalg.norm(d)
        _family(pairs, "gauss", rung, a, rng, False, near)
    return pairs


def cospherical(rng) -> list:
    """Equal norms defeat radius pruning and iterative pruning exits well
    separated, so the 1+3 anchor loop runs one 3D test per anchor tried:
    every anchor on a mirror pair, the first one on a congruent helix (it is
    vertex-transitive).  A congruent antipodal set stops at the matching
    anchor, whose rank is uniform over the placement, so its time varies
    several-fold from seed to seed; it is left out to keep runs comparable."""
    pairs: list = []
    # With 96 points the smallest antipodal mirror pair stays well below the
    # 50-point helix mirror pair, so the median pair is a helix, whose work
    # does not depend on the seed.
    for rung, (m, ell) in enumerate(((96, 50), (256, 100), (512, 200))):
        u = rng.normal(size=(m // 2, 4))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        _family(pairs, "antipodal", rung, np.vstack([u, -u]), rng, False,
                congruent=False)
        helix = _helix(ell, 3, 0.8, rng.uniform(0, TWO_PI, 2))
        _family(pairs, "helix", rung, helix, rng, False)
    return pairs


# The dense workload raises delta0 through the public option so that the
# dense path runs on inputs of a few hundred to two thousand points.  At the
# production delta0 = 5e-4 a circle needs more than 12566 points, and one
# decision on a 13000-point circle takes 11 s.
CIRCLE_DELTA0 = 0.07
TORUS_DELTA0 = 0.3


def dense(rng) -> list:
    """Closest pairs below delta0 drive iterative pruning through its arc
    rounds, then mirror circles, marking and the 2+2 reduction.

    Great circles: the near-miss slides two antipodal points by 0.3
    spacing, which keeps the centroid and every radius, so it is rejected
    only after both iterative pruning runs.  Flat p x (p+1) grids on the
    Clifford torus are dense at delta0 = 0.3 from p = 22 on, so their 2+2
    reduction also canonicalises a torus set."""
    pairs: list = []
    for rung, (n, p) in enumerate(((250, 22), (600, 32))):
        a = _unit_circle(n, rng.uniform(0, TWO_PI))
        th = math.atan2(a[0, 1], a[0, 0]) + 0.3 * TWO_PI / n
        near = a.copy()
        near[0, :2] = math.cos(th), math.sin(th)
        near[n // 2, :2] = -near[0, :2]
        _family(pairs, "circle", rung, a, rng, True, near, CIRCLE_DELTA0)
        grid = _grid(p, p + 1, 1.0 / math.sqrt(2.0), rng.uniform(0, TWO_PI, 2))
        _family(pairs, "torus", rung, grid, rng, True, delta0=TORUS_DELTA0)
    return pairs


WORKLOADS = {
    "gauss": gauss,
    "cospherical": cospherical,
    "dense": dense,
}


def generate(name: str, seed: int) -> list:
    """The workload's pairs; the same seed gives the same pairs."""
    return WORKLOADS[name](np.random.default_rng(seed))


def five_cell_pair(seed: int) -> tuple:
    """The regular 5-cell and a placed copy: the tiny decision of setup_s."""
    pts = np.zeros((5, 4))
    for i in range(4):
        pts[i, i] = math.sqrt(1.0 - np.sum(pts[i, :i] ** 2))
        for j in range(i + 1, 5):
            pts[j, i] = (-0.25 - pts[j, :i] @ pts[i, :i]) / pts[i, i]
    return pts, place(pts, np.random.default_rng(seed))
