"""Fast-forward (counterdiabatic) dynamics of small XY spin clusters."""

__version__ = "0.1.0"

from .model import ModelSpec, THREE_SPIN_KAGOME, TWO_SPIN, d_h0_dr, h0
from .spectrum import (AdiabaticBranch, branch_vector_at, default_r_grid,
                       eigensolve, fix_gauge, track_branch)
from .regularization import CoefficientTable, coefficient_table, solve_core
from .fastforward import (FastForwardProfile, Trajectory, h_ff, integrate, r_of_t,
                          v_of_t)

__all__ = [
    "AdiabaticBranch", "CoefficientTable", "FastForwardProfile", "ModelSpec",
    "THREE_SPIN_KAGOME", "TWO_SPIN", "Trajectory", "branch_vector_at",
    "coefficient_table", "d_h0_dr",
    "default_r_grid", "eigensolve", "fix_gauge",
    "h0", "h_ff", "integrate", "r_of_t", "solve_core",
    "track_branch", "v_of_t",
]
