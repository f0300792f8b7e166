"""Core types and primitives for congruence testing on the unit sphere in 4-space.

Everything downstream works with plain float64 numpy arrays: points are rows
of an (n, 4) array, planes through the origin are row-pairs of orthonormal
basis vectors, and every adapted orthonormal frame (anchor axis, plane
pair, Hopf bundle, edge figure) comes from :func:`frame`, or from
:func:`frames` for a whole stack of them at once.  Rotations are
built here (:func:`block_rotation`) but not taken apart: the invariant
planes of an orbit cycle's step rotation come from its complex
eigenvectors in ``circles.cycle_circle``.  ``EPS_EQ`` is
the default comparison tolerance for coordinates; callers may override it
per operation.  It is not the only tolerance: several stages still
compare angles, frames and fits against fixed literals (1e-7 and others)
of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, permutations
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

EPS_EQ = 1e-9
VERIFY_EPS = 1e-6           # matching tolerance of the final rotation check
_TINY = np.finfo(float).tiny  # smallest normal float64

# Bound constants used by the pruning pipeline.  The icosahedral quantities
# derive from the edge length of the unit icosahedron; the circle-family cap
# is the packing bound floor(15*pi / (8 * (d/2)^5)) with d the minimum
# pairwise distance of non-parallel circle invariants on the 5-sphere.
ICOSA_EDGE = math.sqrt(50.0 - 10.0 * math.sqrt(5.0)) / 5.0
ALPHA_MIN = math.asin(ICOSA_EDGE / 2.0)          # 0.5535743589...
DELTA_MIN = math.sqrt(2.0) * math.sin(ALPHA_MIN)  # 0.7434960689...


@dataclass(frozen=True)
class Constants:
    """Fixed numeric bounds shared by the whole pipeline."""

    delta0: float = 5e-4        # closest-pair distance above which sets are well separated
    kissing_2: int = 5          # max successors of an arc (kissing number on the circle band)
    kissing_3: int = 12         # max degree in a closest-pair graph on the 3-sphere
    kissing_5_upper: int = 44   # upper bound for max degree on the 5-sphere
    circle_factor: int = 200    # orbit-cycle count is at most n / circle_factor
    pair_fanout: int = 25       # marked-pair count is at most pair_fanout * |circles|
    marks_per_pair: int = 4
    few_circles_cap: int = int(15.0 * math.pi / (8.0 * (DELTA_MIN / 2.0) ** 5))  # 829


CONSTANTS = Constants()


class DuplicatePointsError(ValueError):
    """Input contains two points closer than the comparison tolerance."""


class ParallelPlanesError(ValueError):
    """Planes are equal or Clifford parallel; closest points are not unique."""


class Chirality(Enum):
    LEFT = "left"
    RIGHT = "right"
    BOTH = "both"
    NOT_ISOCLINIC = "not-isoclinic"


@dataclass(frozen=True)
class PointSet4:
    """A finite labeled multiset of points in 4-space (no labels: all 0)."""

    points: np.ndarray
    labels: Optional[Sequence] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 4:
            raise ValueError(f"expected an (n, 4) array, got {pts.shape}")
        object.__setattr__(self, "points", pts)
        if self.labels is None:
            object.__setattr__(self, "labels", np.zeros(len(pts), dtype=int))
        if len(self.labels) != len(pts):
            raise ValueError("label count does not match point count")

    def __len__(self) -> int:
        return len(self.points)


class PlaneSpan:
    """A 2-plane through the origin, stored as two orthonormal row vectors."""

    __slots__ = ("basis",)

    def __init__(self, basis: np.ndarray):
        basis = np.asarray(basis, dtype=float)
        if basis.shape != (2, 4):
            raise ValueError(f"expected a (2, 4) basis, got {basis.shape}")
        g = basis @ basis.T
        if np.max(np.abs(g - np.eye(2))) > 1e-7:
            raise ValueError("basis is not orthonormal")
        self.basis = basis

    @classmethod
    def from_vectors(cls, u: np.ndarray, v: np.ndarray) -> "PlaneSpan":
        """Orthonormalize two independent vectors into a plane span."""
        f = frame([u, v], 1e-12)
        if f is None:
            raise ValueError("spanning vectors are dependent")
        return cls(f[:2])

    def key(self) -> tuple:
        """Deterministic ordering key: the canonical Pluecker coordinates."""
        return tuple(pluecker(self))

    def __repr__(self) -> str:
        return f"PlaneSpan({self.basis.round(6).tolist()})"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a congruence test.

    For a positive verdict ``rotation`` maps the first raw set onto the
    second: B = A @ rotation.T + translation.  ``reflected`` marks verdicts
    obtained only after mirroring (the matrix then has determinant -1).
    ``stage`` names the pipeline stage where a negative verdict was decided.
    """

    congruent: bool
    rotation: Optional[np.ndarray] = None
    translation: Optional[np.ndarray] = None
    stage: Optional[str] = None
    reflected: bool = False

    @classmethod
    def yes(cls, rotation, translation, reflected=False) -> "Verdict":
        return cls(True, np.asarray(rotation, float), np.asarray(translation, float),
                   None, reflected)

    @classmethod
    def no(cls, stage: str) -> "Verdict":
        return cls(False, None, None, stage)

    def __bool__(self) -> bool:
        return self.congruent


def block_rotation(phi: float, psi: float) -> np.ndarray:
    """The rotation acting by angle phi in the x1y1-plane and psi in x2y2."""
    c1, s1, c2, s2 = math.cos(phi), math.sin(phi), math.cos(psi), math.sin(psi)
    return np.array([[c1, -s1, 0.0, 0.0],
                     [s1, c1, 0.0, 0.0],
                     [0.0, 0.0, c2, -s2],
                     [0.0, 0.0, s2, c2]])


@lru_cache(maxsize=None)
def _cross_terms(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The generalized cross product of d - 1 rows f_0 .. f_{d-2} in R^d as
    a Levi-Civita contraction: its entry j is the sum, over the
    permutations p of 0 .. d-1 with p[-1] = j, of sign(p) * f_0[p[0]] *
    ... * f_{d-2}[p[d-2]].  Returns the flat indices r * d + p[r] of the
    factors, (d, (d-1)!, d-1), and the signs, (d, (d-1)!, 1).  Appended as
    a last row, the product makes the determinant its squared length.
    """
    perms = sorted(permutations(range(d)), key=lambda p: p[-1])
    sign = [(-1) ** sum(x > y for x, y in combinations(p, 2)) for p in perms]
    flat = np.arange(d - 1) * d + np.array(perms)[:, :-1]
    return flat.reshape(d, -1, d - 1), np.array(sign, float).reshape(d, -1, 1)


def _gs_step(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One classical Gram-Schmidt step: the columns of w, (d, m), minus
    their projections on the orthonormal rows q, (i, d, m), of the same
    stacks."""
    if not len(q):
        return w
    return w - (q * (q * w).sum(1)[:, None]).sum(0)


def _unit(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns of w scaled to unit length, and their squared lengths.
    A column whose squared length is below the smallest normal float comes
    out finite (zero stays zero); the caller replaces it."""
    s = (w * w).sum(0)
    return w / np.sqrt(np.maximum(s, _TINY)), s


def frames(stack, eps: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """:func:`frame` of every k-vector row of an (m, k, d) stack, k < d.

    Returns (F, ok): F is (m, d, d) with F[i] the frame of stack[i], and
    ok[i] is False where some vector is within eps of the span of those
    before it (F[i] is then still a finite, positively oriented orthonormal
    frame, but not adapted to the vectors).

    The frames are built in closed form, each step one vectorized pass
    over the whole stack.  Given row i is vector i after two classical
    Gram-Schmidt steps against the rows before it (Giraud, Langou,
    Rozloznik and van den Eshof, Numer. Math. 2005), which keeps it on the
    side of vector i; ok compares its length after the first step, |R_ii|,
    with eps.  A free middle row, and a given row whose residual vanishes,
    is the coordinate axis of least weight on the rows before it after the
    same two steps.  The last row is the generalized cross product of the
    rows before it, which orients the frame positively.
    """
    a = np.ascontiguousarray(np.asarray(stack, dtype=float).transpose(1, 2, 0))
    k, d, m = a.shape
    f = np.empty((d, d, m))         # row, coordinate, stack
    ok = np.ones(m, dtype=bool)
    for i in range(d - 1):
        q = f[:i]
        if i < k:
            w = _gs_step(q, a[i])
            ok &= (w * w).sum(0) >= eps * eps
            u, s = _unit(_gs_step(q, w))
            if (s >= _TINY).all():
                f[i] = u
                continue
        axis = np.eye(d)[:, (q * q).sum(0).argmin(0)]
        e = _unit(_gs_step(q, _gs_step(q, axis)))[0]
        f[i] = e if i >= k else np.where(s >= _TINY, u, e)
    flat, sign = _cross_terms(d)
    f[-1] = _unit((f.reshape(d * d, m)[flat].prod(2) * sign).sum(1))[0]
    return np.ascontiguousarray(f.transpose(2, 0, 1)), ok


def frame(vectors, eps: float = 1e-9) -> Optional[np.ndarray]:
    """Positively oriented orthonormal basis (rows) of R^d adapted to k < d
    vectors: row i lies in the span of vectors 0..i, on the side of vector
    i.  None if some vector is within eps of the span of those before it.
    The one-stack case of :func:`frames`, which also defines the free
    rows; a caller with several frames to build makes one :func:`frames`
    call instead, at about the cost of one :func:`frame`.
    """
    f, ok = frames(np.asarray(vectors, dtype=float)[None], eps)
    return f[0] if ok[0] else None


def pluecker(p: PlaneSpan) -> np.ndarray:
    """Canonical unit Pluecker coordinates of a plane.

    Coordinate order is (01, 02, 03, 12, 13, 23).  The vector is normalized
    and its sign fixed so the first coordinate of magnitude above EPS_EQ is
    positive; a plane and any basis of it map to the same 6-vector.
    """
    u, v = p.basis
    coords = np.array([
        u[0] * v[1] - u[1] * v[0],
        u[0] * v[2] - u[2] * v[0],
        u[0] * v[3] - u[3] * v[0],
        u[1] * v[2] - u[2] * v[1],
        u[1] * v[3] - u[3] * v[1],
        u[2] * v[3] - u[3] * v[2],
    ])
    coords /= np.linalg.norm(coords)
    first = coords[np.argmax(np.abs(coords) > EPS_EQ)]
    return -coords if first < 0 else coords


def chirality(p: PlaneSpan, q: PlaneSpan, eps: float = EPS_EQ) -> Chirality:
    """Classify an isoclinic plane pair as left, right, or both.

    Two planes are isoclinic when their principal angles agree; the test is
    run on the singular values of the overlap matrix (perfectly conditioned)
    rather than on the angles themselves.  Identical and completely
    orthogonal pairs are isoclinic in both senses.
    """
    m = p.basis @ q.basis.T
    s = np.clip(np.linalg.svd(m, compute_uv=False), 0.0, 1.0)
    if s[0] - s[1] > eps:
        return Chirality.NOT_ISOCLINIC
    if s[1] >= 1.0 - eps or s[0] <= eps:
        return Chirality.BOTH
    v1, v2 = p.basis
    # project P's basis into Q, then back onto the orthogonal complement of P
    def shadow(x):
        in_q = q.basis.T @ (q.basis @ x)
        return in_q - p.basis.T @ (p.basis @ in_q)
    d = np.linalg.det(np.vstack([v1, v2, shadow(v1), shadow(v2)]))
    return Chirality.RIGHT if d > 0 else Chirality.LEFT


def hopf_image(c0, p: np.ndarray) -> np.ndarray:
    """Map a unit 4-vector to the base 2-sphere of the circle bundle through c0.

    ``c0`` may be a PlaneSpan or a precomputed ``frame(c0.basis)``; the
    base-sphere coordinates depend on which completion of c0 is used.  A
    positively oriented frame gives the right-parallel bundle; negating its
    row 2 gives the left one.  Points of c0 itself map to (0, 0, 1); the
    completely orthogonal circle maps to (0, 0, -1).  Two circles of the
    bundle at angle pair (a, a) have image points at geodesic distance 2a.
    """
    f = c0 if isinstance(c0, np.ndarray) else frame(c0.basis)
    x, y, z, w = f @ np.asarray(p, dtype=float)
    return np.array([2.0 * (x * w - y * z), 2.0 * (y * w + x * z),
                     1.0 - 2.0 * (z * z + w * w)])


def hopf_fiber(c0, s: np.ndarray) -> PlaneSpan:
    """The circle of the bundle through c0 lying over base point s.

    Inverse of :func:`hopf_image` for the same frame: the returned plane is
    parallel (in the frame's sense) to c0 and its points map to s.
    """
    f = c0 if isinstance(c0, np.ndarray) else frame(c0.basis)
    s = np.asarray(s, dtype=float)
    s = s / np.linalg.norm(s)
    gamma = math.acos(min(1.0, max(-1.0, s[2]))) / 2.0
    cg, sg = math.cos(gamma), math.sin(gamma)
    v1, v2, v3, v4 = f
    if sg * 2.0 < 1e-15:
        return PlaneSpan(np.vstack([v1, v2]))
    delta = math.atan2(s[0], s[1])
    w1 = math.cos(delta) * v3 + math.sin(delta) * v4
    w2 = math.cos(delta) * v4 - math.sin(delta) * v3
    return PlaneSpan(np.vstack([cg * v1 + sg * w1, cg * v2 + sg * w2]))


def mark_pair(c: PlaneSpan, d: PlaneSpan, eps: float = EPS_EQ) -> tuple[np.ndarray, np.ndarray]:
    """Closest antipodal point pairs of two non-parallel great circles.

    Returns (marks_on_c, marks_on_d), each a (2, 4) array of antipodal unit
    points.  The marks are the endpoints of the principal axis realizing the
    smaller principal angle; they exist iff the angles differ.
    """
    n = c.basis @ d.basis.T
    u, s, vt = np.linalg.svd(n)
    if s[0] - s[1] <= eps:
        raise ParallelPlanesError("equal principal angles: no unique closest points")
    on_c = u[:, 0] @ c.basis
    on_d = vt[0] @ d.basis
    return np.vstack([on_c, -on_c]), np.vstack([on_d, -on_d])


def match_multisets(x: np.ndarray, y: np.ndarray, eps: float = EPS_EQ,
                    labels_x: Optional[Sequence] = None,
                    labels_y: Optional[Sequence] = None) -> bool:
    """Decide whether two labeled point multisets agree within tolerance.

    Builds a bijection greedily, points with fewer candidates within eps
    first; any two candidates for one point are within 2*eps of each
    other, so greedy choice cannot paint itself into a corner beyond the
    tolerance contract.  One k=2 query bounded just above eps finds every
    point's nearest candidate and whether it has a second; the points with
    one are settled in arrays, and only the rest list their candidates,
    taken in stable order of candidate count.  Labels other than int arrays
    are ranked jointly at entry."""
    if (labels_x is None) != (labels_y is None):
        raise ValueError("either both sets are labeled or neither is")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        return False
    if len(x) == 0:
        return True
    lx, ly = labels_x, labels_y
    if lx is None:
        lx = ly = np.zeros(len(x), dtype=int)
    elif not all(isinstance(v, np.ndarray) and v.dtype.kind in "biu"
                 for v in (lx, ly)):
        from .condense import joint_ranks      # condense imports this module
        _, lx, ly = joint_ranks(lx, ly)
    tree = cKDTree(y)
    # a missing neighbour (len(y) == 1, or none in reach) has distance inf
    d, idx = tree.query(x, k=2, distance_upper_bound=np.nextafter(eps, np.inf))
    if (d[:, 0] > eps).any():
        return False
    one = d[:, 1] > eps
    hit = idx[one, 0]
    used = np.zeros(len(y), dtype=bool)
    used[hit] = True
    if used.sum() < len(hit) or (lx[one] != ly[hit]).any():
        return False
    rest = np.flatnonzero(~one)
    if len(rest) == 0:
        return True
    cand = tree.query_ball_point(x[rest], r=eps)
    num = np.fromiter(map(len, cand), dtype=int, count=len(cand))
    lx, ly = lx[rest].tolist(), ly.tolist()
    for k in np.argsort(num, kind="stable").tolist():
        j = next((j for j in cand[k] if not used[j] and lx[k] == ly[j]), -1)
        if j < 0:
            return False
        used[j] = True
    return True


def verify_rotation(a: PointSet4, b: PointSet4, r: np.ndarray,
                    eps: float = VERIFY_EPS) -> bool:
    """Check that r maps normalized set a onto normalized set b exactly."""
    ra = a.points @ np.asarray(r, dtype=float).T
    return match_multisets(ra, b.points, eps, a.labels, b.labels)
