"""Congruence testing for finite point sets in 4-space.

The package decides whether two n-point sets are related by an
orientation-preserving isometry (rotation plus translation) and, if so,
produces a witnessing rotation.  The test runs in near-linearithmic time by
condensing both sets in lockstep until a dimension reduction applies.
"""

from .geom import (
    CONSTANTS,
    EPS_EQ,
    AnglePair,
    Chirality,
    Constants,
    DegenerateRotationError,
    DuplicatePointsError,
    ParallelPlanesError,
    PlaneSpan,
    PointSet4,
    RotationDecomposition,
    Verdict,
    angle_between_planes,
    block_rotation,
    chirality,
    decompose_rotation,
    frame,
    hopf_fiber,
    hopf_image,
    mark_pair,
    pluecker,
    pluecker_distance,
    verify_rotation,
)
from .fileio import PointFileError, read_points, write_points
from .harness import (
    gen_congruent_pair,
    gen_hopf_circles,
    gen_orbit_helix,
    gen_perturbed,
    gen_regular_polytope,
    gen_torus_grid,
    oracle_congruent,
    random_rotation,
)
from .lowdim import congruence_2d_labeled, congruence_3d_labeled
from .pipeline import PipelineOptions, congruence_test_4d
from .torus import canonical_set_torus, torus_translation_congruent

__version__ = "0.1.0"
