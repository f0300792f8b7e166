import numpy as np
import pytest

from hypercongruence.geom import block_rotation, frame, pluecker
from hypercongruence.harness import random_rotation


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


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
    f = frame(circle.basis)
    z = orbit[:2] @ f.T @ np.array([[1, 0], [1j, 0], [0, 1], [0, 1j]])
    return np.angle(z[1] / z[0])


def rebuilt_step(orbit, circle) -> np.ndarray:
    """A cycle's step rotation rebuilt from its circle and step angles."""
    f = frame(circle.basis)
    return f.T @ block_rotation(*step_angles(orbit, circle)) @ f


def pluecker_distance(p, q) -> float:
    """Distance of two planes as antipodal point pairs on the 5-sphere.

    Equals sqrt(2 * (1 - cos(alpha) * cos(beta))) for principal angles
    (alpha, beta).
    """
    a, b = pluecker(p), pluecker(q)
    return min(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))


def left_frame(f: np.ndarray) -> np.ndarray:
    """A frame with row 2 negated: hopf_image and hopf_fiber on it map the
    left-parallel bundle through the frame's first plane."""
    f = np.array(f, dtype=float)
    f[2] = -f[2]
    return f


__all__ = ["left_frame", "pluecker_distance", "random_rotation",
           "rebuilt_step", "rot3", "step_angles"]
