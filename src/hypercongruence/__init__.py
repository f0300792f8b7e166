"""Congruence testing for finite point sets in 4-space.

The package decides whether two n-point sets are related by an
orientation-preserving isometry (rotation plus translation) and, if so,
produces a witnessing rotation.  The test runs in near-linearithmic time by
condensing both sets in lockstep until a dimension reduction applies.
Each name below is the one way the package does its job.
"""

from .geom import (
    CONSTANTS,
    EPS_EQ,
    Constants,
    PointSet4,
    Verdict,
    block_rotation,
    circle_halves,
    circle_of_halves,
    frame,
    verify_rotation,
)
from .fileio import PointFileError, read_points, write_points
from .harness import (
    gen_congruent_pair,
    gen_hopf_circles,
    gen_orbit_helix,
    gen_regular_polytope,
    gen_torus_grid,
    oracle_congruent,
    random_rotation,
)
from .lowdim import congruence_3d_labeled
from .pipeline import PipelineOptions, congruence_test_4d
from .torus import canonical_set_torus, torus_translation_congruent

__version__ = "0.1.0"
