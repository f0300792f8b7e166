"""Core types and primitives for congruence testing on the unit sphere in 4-space.

Everything downstream works with plain float64 numpy arrays: points are rows
of an (n, 4) array, a great circle (a plane through the origin) is an
orthonormal (2, 4) basis and a family of them an (m, 2, 4) stack, put in
canonical order by its Pluecker rows (:func:`plueckers`), and every adapted
orthonormal frame (anchor axis, plane pair, edge figure) comes from
:func:`frame`, or from :func:`frames` for a whole stack of them at once.  A great circle's parallelism and Hopf base points
come from the halves of its bivector (:func:`circle_halves`).  Rotations are
built here (:func:`block_rotation`) but not taken apart: the invariant
planes of an orbit cycle's step rotation come from its complex eigenvectors
in ``circles.cycle_circle``.  ``EPS_EQ`` is the default comparison tolerance
for coordinates; callers may override it per operation.  Every fixed
tolerance is named once, in the table below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, combinations, permutations
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.spatial import cKDTree

# Every fixed tolerance, one name per role: what it bounds, in [in] input
# units, [u] distances and cosines of unit vectors, [rad] radians or [sv]
# singular-value ratios.  Known unit mismatches: angle_tol clusters angles
# at the coordinate eps, and eps_eq > VERIFY_EPS / 2 rejects at "coincident".
EPS_EQ = 1e-9               # default coordinate tolerance [in]
VERIFY_EPS = 1e-6           # match distance of the final rotation check [in]
ORACLE_EPS = 1e-7           # span and match tolerance of the oracle [in]
FRAME_EPS = 1e-9            # frame residual of a dependent vector [u]
SPAN_EPS = 1e-12            # the same, where only parallel vectors fail [u]
ORTHONORMAL_TOL = 1e-7      # Gram entry error of a chirality basis [u]
CENTROID_TOL = 1e-7         # centroid norm of eccentric unit points [u]
FIT_TOL = 1e-7              # step error of an orbit cycle's rotation [u]
MIRROR_TOL = 1e-7           # match distance of mirrored arc neighbours [u]
MARK_EPS = 1e-7             # merge distance of circle marks [u]
HOPF_EPS = 1e-7             # condensing tolerance of Hopf images [u]
AXIS_TOL = 1e-9             # figure point's distance off its arc's plane [u]
POINT_RADIUS = 1e-9         # radius of a mark circle that is a point [u]
SV_RANK_TOL = 1e-7          # singular value of unit rows that adds rank [u]
ORTHOGONAL_TOL = 1e-7       # |cos| of orthogonal grid legs [u]
COPLANAR_TOL = 1e-9         # 1 - cos of coplanar hull face normals [u]
THETA_TOL = 1e-7            # positions on mark circles [rad]
TORUS_EPS = 1e-7            # positions of a torus set [rad]
ALPHA_POINT_TOL = 1e-7      # sin of a successor angle of a point circle [u]
FIXED_ANGLE_TOL = 1e-9      # turn angle of a plane a rotation fixes [rad]
RANK_RATIO = 1e-7           # rank of mirror components and cycle fits [sv]
COLLINEAR_RATIO = 1e-6      # rank of Kabsch-fitted singleton points [sv]
EPS_FLOOR = 1e-9            # least eps of match_tol and radius_tol [u]
ANGLE_FLOOR = 1e-12         # least eps of angle_tol [rad]


def match_tol(eps: float) -> float:
    """How near a reduced test's rotation puts each point: 10 eps, >= 1e-8."""
    return max(eps, EPS_FLOOR) * 10.0


def radius_tol(eps: float) -> float:
    """Plane radius up to which a point is the plane's origin: eps, >= 1e-9."""
    return max(eps, EPS_FLOOR)


def angle_tol(eps: float) -> float:
    """Clustering tolerance of turn angles on a circle: eps, >= 1e-12."""
    return max(eps, ANGLE_FLOOR)


def key_tol(eps: float) -> float:
    """Pluecker-key distance of two circles that are one: 10 eps."""
    return 10 * eps


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
    few_circles_cap: int = int(15.0 * math.pi / (8.0 * (DELTA_MIN / 2.0) ** 5))  # 829


CONSTANTS = Constants()


class DuplicatePointsError(ValueError):
    """Input contains two points closer than the comparison tolerance."""


class Stalled(Exception):
    """A condensing step stalled; the pipeline falls back to the 1+3 step."""


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


def frames(stack, eps: float = FRAME_EPS) -> tuple[np.ndarray, np.ndarray]:
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


def frame(vectors, eps: float = FRAME_EPS) -> Optional[np.ndarray]:
    """Positively oriented orthonormal basis (rows) of R^d adapted to k < d
    vectors: row i lies in the span of vectors 0..i, on the side of vector
    i.  None if some vector is within eps of the span of those before it.
    The one-stack case of :func:`frames`, which also defines the free
    rows; a caller with several frames to build makes one :func:`frames`
    call instead, at about the cost of one :func:`frame`.
    """
    f, ok = frames(np.asarray(vectors, dtype=float)[None], eps)
    return f[0] if ok[0] else None


def _bivectors(circles) -> np.ndarray:
    """The bivectors u v^T - v u^T, (m, 4, 4), of m circle bases (u, v)."""
    b = np.asarray(circles, dtype=float).reshape(-1, 2, 4)
    p = b[:, 0, :, None] * b[:, 1, None, :]
    return p - p.transpose(0, 2, 1)


def plueckers(circles) -> np.ndarray:
    """Canonical unit Pluecker coordinates of a stack of circles, (m, 6).

    Coordinate order is (01, 02, 03, 12, 13, 23).  Each row is normalized
    and its sign fixed so its first coordinate of magnitude above EPS_EQ is
    positive; a plane and any basis of it map to the same row.
    """
    i, j = np.triu_indices(4, 1)
    p = np.ascontiguousarray(_bivectors(circles)[:, i, j])
    # the norm np.linalg.norm gives one row, a BLAS dot on a contiguous
    # row; a vectorized sum of squares rounds differently
    p /= np.sqrt(np.fromiter(map(np.dot, p, p), float, len(p)))[:, None]
    first = p[np.arange(len(p)), np.argmax(np.abs(p) > EPS_EQ, axis=1)]
    return np.where(first[:, None] < 0, -p, p)


def pluecker_sorted(circles) -> np.ndarray:
    """The stack of circles in lexicographic order of :func:`plueckers`."""
    circles = np.asarray(circles, dtype=float).reshape(-1, 2, 4)
    return circles[np.lexsort(plueckers(circles).T[::-1])]


def circle_halves(circles) -> tuple[np.ndarray, np.ndarray]:
    """The halves (sigma, tau) of the bivectors of an (m, 2, 4) stack of
    circle bases, unit (m, 3) rows sigma = (p01 + p23, p02 - p13, p03 + p12)
    and tau = (p01 - p23, p02 + p13, p03 - p12) of the Pluecker coordinates.
    A circle is its pair up to a joint sign (Gluck and Warner, Duke Math. J.
    1983).  Right Clifford parallel circles share sigma up to sign, left ones
    tau; in a right bundle the tau, signed so that the sigma agree, are the
    Hopf base points, 2a apart for circles at angle (a, a).  A reflection
    swaps the halves."""
    p = _bivectors(circles)
    s, h = p[:, 0, 1:], p[:, [2, 3, 1], [3, 1, 2]]    # (p01, p02, p03), its dual
    return s + h, s - h


def circle_of_halves(sigma, tau) -> np.ndarray:
    """The great circles with halves (sigma, tau), (m, 3) rows broadcast
    against each other, as an (m, 2, 4) stack (one (2, 4) basis for two
    single rows): inverse of :func:`circle_halves`, the planes of the
    rebuilt bivectors as their top two right singular vectors."""
    s, h = np.add(sigma, tau) / 2.0, np.subtract(sigma, tau) / 2.0
    m = np.zeros(s.shape[:-1] + (4, 4))
    m[..., 0, 1:], m[..., [2, 3, 1], [3, 1, 2]] = s, h
    return np.linalg.svd(m - m.swapaxes(-1, -2))[2][..., :2, :]


def parallel(halves: np.ndarray, pairs, eps: float) -> np.ndarray:
    """Which pairs (i, j) of circles are Clifford parallel in the sense of
    the halves given (sigma right, tau left): rows equal up to sign within eps."""
    x, y = halves[np.asarray(pairs, dtype=int).reshape(-1, 2).T]
    return np.minimum(np.linalg.norm(x - y, axis=1),
                      np.linalg.norm(x + y, axis=1)) <= eps


def chirality(p, q, eps: float = EPS_EQ) -> Chirality:
    """Classify a pair of circles, two orthonormal (2, 4) bases, as right or
    left Clifford parallel, both, or not isoclinic, on their halves.  For
    principal angles a <= b their chords are 2 sin((b - a) / 2) and
    2 sin(min(a + b, pi - a - b) / 2), linear in the angles.  Identical and
    completely orthogonal pairs are both."""
    pair = [np.asarray(x, dtype=float) for x in (p, q)]
    if any(x.shape != (2, 4) or np.abs(x @ x.T - np.eye(2)).max()
           > ORTHONORMAL_TOL for x in pair):
        raise ValueError("expected two orthonormal (2, 4) bases")
    halves = circle_halves(pair)
    right, left = (bool(parallel(x, [(0, 1)], eps)[0]) for x in halves)
    if right:
        return Chirality.BOTH if left else Chirality.RIGHT
    return Chirality.LEFT if left else Chirality.NOT_ISOCLINIC


def mark_pairs(c, d, eps: float = EPS_EQ) -> tuple[np.ndarray, np.ndarray]:
    """Closest antipodal point pairs of the great circles c[i] and d[i] of
    two (k, 2, 4) stacks, the endpoints of the principal axes realizing the
    smaller principal angle.  Returns (marks, ok): marks is (4k, 4), c+,
    c-, d+, d- of each pair in turn; ok[i] is False where the principal
    cosines of pair i are within eps, so that its marks are not unique."""
    c, d = (np.asarray(x, dtype=float).reshape(-1, 2, 4) for x in (c, d))
    u, s, vt = np.linalg.svd(c @ d.transpose(0, 2, 1))
    on_c = (u[:, None, :, 0] @ c)[:, 0]
    on_d = (vt[:, :1] @ d)[:, 0]
    return (np.stack([on_c, -on_c, on_d, -on_d], axis=1).reshape(-1, 4),
            s[:, 0] - s[:, 1] > eps)


def match_multisets(x: np.ndarray, y: np.ndarray, eps: float = EPS_EQ,
                    labels_x: Optional[Sequence] = None,
                    labels_y: Optional[Sequence] = None) -> bool:
    """Decide whether two labeled point multisets agree within tolerance.

    First the rows of both sides are paired in order of their squared
    norms: when the labels agree along that order and every paired
    squared distance is at most eps**2, that is a bijection and the answer
    is True without a search.  This check never rejects.  Otherwise the
    candidates of a point are the points of y within eps with its label.
    One k=2 query bounded just above eps finds every point's nearest
    candidate and whether it has a second; a point with one must take it,
    so those are settled in arrays.  The rest list their candidates, and a
    maximum bipartite matching (Hopcroft-Karp) on the candidates not taken
    yet decides whether all of them can be matched.  A greedy choice would
    not do: when points lie closer than eps, taking one point's candidate
    can leave a later point without one although a bijection exists.
    Labels other than 1-D int arrays (2-D label rows, say) are ranked
    jointly at entry, so that labels compare elementwise."""
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
    elif not all(isinstance(v, np.ndarray) and v.ndim == 1
                 and v.dtype.kind in "biu" for v in (lx, ly)):
        from .condense import joint_ranks      # condense imports this module
        _, lx, ly = joint_ranks(lx, ly)
    ox, oy = (np.argsort(np.einsum("ij,ij->i", p, p)) for p in (x, y))
    gap = np.take(x, ox, axis=0) - np.take(y, oy, axis=0)
    if (np.array_equal(np.take(lx, ox, axis=0), np.take(ly, oy, axis=0))
            and (np.einsum("ij,ij->i", gap, gap) <= eps * eps).all()):
        return True
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
    row = np.repeat(np.arange(len(rest)), num)
    col = np.fromiter(chain.from_iterable(cand), dtype=int, count=int(num.sum()))
    edge = ~used[col] & (lx[rest][row] == ly[col])
    graph = csr_matrix((np.ones(int(edge.sum()), dtype=np.int8),
                        (row[edge], col[edge])), shape=(len(rest), len(y)))
    return bool((maximum_bipartite_matching(graph, perm_type="column") >= 0).all())


def verify_rotation(a: PointSet4, b: PointSet4, r: np.ndarray,
                    eps: float = VERIFY_EPS) -> bool:
    """Check that r maps normalized set a onto normalized set b exactly:
    some bijection of their rows with equal labels puts every r @ a_i
    within eps of its b_j (:func:`match_multisets`)."""
    return match_multisets(a.points @ np.asarray(r, dtype=float).T, b.points,
                           eps, a.labels, b.labels)
