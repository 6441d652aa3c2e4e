"""matconv: matrix convex sets at finite matrix scale.

Dilation constructions, membership oracles for graded matrix convex sets,
Choi-matrix feasibility tests for map existence, tight-frame symmetry
analysis, and the extremal witnesses that certify the scaling constants.
"""

__version__ = "0.1.0"

from .numkernel import (  # noqa: F401
    EigenDecomposition,
    JointSpectrum,
    herm_eig,
    hermitize,
    min_eig,
    max_eig,
    opnorm,
    simultaneous_diagonalize,
    joint_spectrum_normal,
)
from .sdp import (  # noqa: F401
    BlockPsdProblem,
    FeasibilityResult,
    LpProblem,
    Status,
    affine_projector_povm,
    dykstra_solve,
    lp_feasible,
    point_in_hull,
)
from .sets import (  # noqa: F401
    GenTuple,
    HermTuple,
    Pencil,
    Polytope,
    ball_member,
    cube_member,
    cube_pencil,
    cube_polytope,
    diamond_polytope,
    diamond_wmax_member,
    pencil_eval,
    pencil_member,
    polar_dual_polytope,
    selfdual_member,
    wmax_member,
    wmin_member,
    zero_interior_range,
)
