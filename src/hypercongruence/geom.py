"""Core types and primitives for congruence testing on the unit sphere in 4-space.

Everything downstream works with plain float64 numpy arrays: points are rows
of an (n, 4) array, planes through the origin are row-pairs of orthonormal
basis vectors, and every adapted orthonormal frame (anchor axis, plane
pair, Hopf bundle, edge figure) comes from :func:`frame`.  ``EPS_EQ`` is
the default comparison tolerance for coordinates; callers may override it
per operation.  It is not the only tolerance: several stages still
compare angles, frames and fits against fixed literals (1e-7 and others)
of their own.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgeqrf, dorgqr
from scipy.spatial import cKDTree

EPS_EQ = 1e-9
VERIFY_EPS = 1e-6           # matching tolerance of the final rotation check

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


class DegenerateRotationError(ValueError):
    """Rotation is the identity or the central inversion."""


class ParallelPlanesError(ValueError):
    """Planes are equal or Clifford parallel; closest points are not unique."""


def worker_count() -> int:
    """Thread cap for neighbor queries, from HYPERCONGRUENCE_THREADS (0 = auto)."""
    raw = os.environ.get("HYPERCONGRUENCE_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    return n if n > 0 else -1


class Chirality(Enum):
    LEFT = "left"
    RIGHT = "right"
    BOTH = "both"
    NOT_ISOCLINIC = "not-isoclinic"


class AnglePair(NamedTuple):
    """Principal angles between two planes, sorted, each in [0, pi/2]."""

    alpha: float
    beta: float


@dataclass(frozen=True)
class PointSet4:
    """A finite labeled multiset of points in 4-space."""

    points: np.ndarray
    labels: Optional[tuple] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 4:
            raise ValueError(f"expected an (n, 4) array, got {pts.shape}")
        object.__setattr__(self, "points", pts)
        if self.labels is not None and len(self.labels) != len(pts):
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


def frame(vectors, eps: float = 1e-9) -> Optional[np.ndarray]:
    """Positively oriented orthonormal basis (rows) of R^d adapted to k < d
    vectors: row i lies in the span of vectors 0..i, on the side of vector
    i.  None if some vector is within eps of the span of those before it.
    """
    a = np.asarray(vectors, dtype=float)
    k, dim = a.shape
    # the LAPACK calls of np.linalg.qr(a.T, mode="complete") minus its
    # wrapper, which triples the cost here; zero columns make Q complete
    qr, tau = dgeqrf(a.T)[:2]
    d = qr.diagonal()
    if np.abs(d).min() < eps:
        return None
    f = dorgqr(np.concatenate([qr, np.zeros((dim, dim - k))], 1), tau)[0].T
    f[:k] *= np.copysign(1.0, d)[:, None]
    if np.linalg.det(f) < 0:
        f[-1] = -f[-1]
    return f


def angle_between_planes(p: PlaneSpan, q: PlaneSpan) -> AnglePair:
    """Principal angle pair of two planes via the SVD of the 2x2 overlap."""
    m = p.basis @ q.basis.T
    s = np.linalg.svd(m, compute_uv=False)
    s = np.clip(s, -1.0, 1.0)
    alpha = math.acos(s[0])   # larger cosine -> smaller angle
    beta = math.acos(s[1])
    return AnglePair(alpha, beta)


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


def pluecker_distance(p: PlaneSpan, q: PlaneSpan) -> float:
    """Distance of two planes as antipodal point pairs on the 5-sphere.

    Equals sqrt(2 * (1 - cos(alpha) * cos(beta))) for principal angles
    (alpha, beta).
    """
    a = pluecker(p)
    b = pluecker(q)
    return min(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))


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


def hopf_image(c0, p: np.ndarray, kind: str = "right") -> np.ndarray:
    """Map a unit 4-vector to the base 2-sphere of the circle bundle through c0.

    ``c0`` may be a PlaneSpan or a precomputed ``frame(c0.basis)``; the
    base-sphere coordinates depend on which completion of c0 is used.
    Points of c0 itself map to (0, 0, 1); the completely orthogonal circle
    maps to (0, 0, -1).  Two circles of the bundle at angle pair (a, a) have
    image points at geodesic distance 2a.
    """
    f = c0 if isinstance(c0, np.ndarray) else frame(c0.basis)
    x, y, z, w = f @ np.asarray(p, dtype=float)
    if kind == "right":
        return np.array([2.0 * (x * w - y * z), 2.0 * (y * w + x * z),
                         1.0 - 2.0 * (z * z + w * w)])
    if kind == "left":
        return np.array([2.0 * (x * w + y * z), 2.0 * (y * w - x * z),
                         1.0 - 2.0 * (z * z + w * w)])
    raise ValueError(f"unknown bundle kind {kind!r}")


def hopf_fiber(c0, s: np.ndarray, kind: str = "right") -> PlaneSpan:
    """The circle of the bundle through c0 lying over base point s.

    Inverse of :func:`hopf_image` for the same frame: the returned plane is
    parallel (in the given sense) to c0 and its points map to s.
    """
    f = c0 if isinstance(c0, np.ndarray) else frame(c0.basis)
    s = np.asarray(s, dtype=float)
    s = s / np.linalg.norm(s)
    gamma = math.acos(min(1.0, max(-1.0, s[2]))) / 2.0
    cg, sg = math.cos(gamma), math.sin(gamma)
    v1, v2, v3, v4 = f
    if kind == "right":
        delta = math.atan2(s[0], s[1])
        w2 = math.cos(delta) * v4 - math.sin(delta) * v3
    elif kind == "left":
        delta = math.atan2(s[0], -s[1])
        w2 = math.sin(delta) * v3 - math.cos(delta) * v4
    else:
        raise ValueError(f"unknown bundle kind {kind!r}")
    if sg * 2.0 < 1e-15:
        return PlaneSpan(np.vstack([v1, v2]))
    w1 = math.cos(delta) * v3 + math.sin(delta) * v4
    return PlaneSpan(np.vstack([cg * v1 + sg * w1, cg * v2 + sg * w2]))


@dataclass(frozen=True)
class RotationDecomposition:
    """Invariant planes and rotation angles of a proper rotation.

    ``basis`` has columns (v1, v2, v3, v4), positively oriented; the rotation
    acts by ``angles[0]`` in span(v1, v2) and ``angles[1]`` in span(v3, v4),
    with 0 <= angles[0] <= |angles[1]|.  For isoclinic rotations the plane
    pair is not unique; ``chirality`` is set instead.
    """

    planes: tuple
    angles: tuple
    basis: np.ndarray
    isoclinic: bool
    chirality: Optional[Chirality]

    def reconstruct(self) -> np.ndarray:
        phi, psi = self.angles
        return self.basis @ block_rotation(phi, psi) @ self.basis.T


def decompose_rotation(r: np.ndarray, eps: float = EPS_EQ) -> RotationDecomposition:
    """Split a proper rotation into two plane rotations.

    Raises DegenerateRotationError for the identity and the central
    inversion, whose invariant planes are entirely arbitrary.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (4, 4) or np.max(np.abs(r.T @ r - np.eye(4))) > 1e-7:
        raise ValueError("not an orthogonal 4x4 matrix")
    if np.linalg.det(r) < 0:
        raise ValueError("matrix is orientation reversing")
    if np.max(np.abs(r - np.eye(4))) <= eps or np.max(np.abs(r + np.eye(4))) <= eps:
        raise DegenerateRotationError("identity or inversion has no invariant plane pair")

    t, q = scipy.linalg.schur(r, output="real")
    pair_cols: list[np.ndarray] = []
    plus_cols: list[np.ndarray] = []
    minus_cols: list[np.ndarray] = []
    i = 0
    while i < 4:
        if i < 3 and abs(t[i + 1, i]) > 1e-10:
            pair_cols.append(q[:, i:i + 2])
            i += 2
        else:
            (plus_cols if t[i, i] > 0 else minus_cols).append(q[:, i])
            i += 1
    for bucket in (plus_cols, minus_cols):
        while bucket:
            pair_cols.append(np.column_stack([bucket.pop(), bucket.pop()]))

    def measured_angle(cols):
        v1, v2 = cols[:, 0], cols[:, 1]
        return math.atan2(v2 @ (r @ v1), v1 @ (r @ v1))

    pair_cols.sort(key=lambda c: abs(measured_angle(c)))
    basis = np.column_stack([pair_cols[0], pair_cols[1]])
    if np.linalg.det(basis) < 0:
        basis[:, 3] = -basis[:, 3]
    phi = measured_angle(basis[:, 0:2])
    psi = measured_angle(basis[:, 2:4])
    if phi < -eps or (abs(phi) <= eps and psi < 0):
        basis = basis[:, [1, 0, 3, 2]]
        phi, psi = -phi, -psi

    planes = (PlaneSpan(basis[:, 0:2].T.copy()), PlaneSpan(basis[:, 2:4].T.copy()))
    iso = abs(abs(phi) - abs(psi)) <= eps
    chir = None
    if iso:
        chir = Chirality.RIGHT if phi * psi > 0 else Chirality.LEFT
    return RotationDecomposition(planes, (phi, psi), basis, iso, chir)


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

    Builds a bijection greedily from nearest-neighbor candidate lists; any
    two candidates for one point are within 2*eps of each other, so greedy
    choice cannot paint itself into a corner beyond the tolerance contract.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        return False
    if len(x) == 0:
        return True
    tree = cKDTree(y)
    cand = tree.query_ball_point(x, r=eps, workers=worker_count())
    order = sorted(range(len(x)), key=lambda i: len(cand[i]))
    used = np.zeros(len(y), dtype=bool)
    for i in order:
        hit = -1
        for j in cand[i]:
            if used[j]:
                continue
            if labels_x is not None and labels_x[i] != labels_y[j]:
                continue
            hit = j
            break
        if hit < 0:
            return False
        used[hit] = True
    return True


def verify_rotation(a: PointSet4, b: PointSet4, r: np.ndarray,
                    eps: float = VERIFY_EPS) -> bool:
    """Check that r maps normalized set a onto normalized set b exactly."""
    ra = a.points @ np.asarray(r, dtype=float).T
    return match_multisets(ra, b.points, eps, a.labels, b.labels)
