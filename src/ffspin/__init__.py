"""Fast-forward (counterdiabatic) dynamics of small XY spin clusters."""

__version__ = "0.1.0"

from .model import (DrivingCoefficients, ModelSpec, THREE_SPIN_KAGOME, TWO_SPIN,
                    d_h0_dr, h0, h_candidate)
from .spectrum import (AdiabaticBranch, branch_vector_at, default_r_grid,
                       eigensolve, fix_gauge, gap_report, track_branch)
from .regularization import (CoefficientTable, CoreSolution, coefficient_table,
                             closed_form_two_spin, component_form_three_spin,
                             solve_core)
from .fastforward import (FastForwardProfile, TrajectoryRecord, fidelity, h_ff,
                          integrate, r_of_t, v_of_t)

__all__ = [
    "AdiabaticBranch", "CoefficientTable", "CoreSolution",
    "DrivingCoefficients", "FastForwardProfile", "ModelSpec",
    "THREE_SPIN_KAGOME", "TWO_SPIN", "TrajectoryRecord", "branch_vector_at",
    "closed_form_two_spin", "coefficient_table", "component_form_three_spin",
    "d_h0_dr",
    "default_r_grid", "eigensolve", "fidelity", "fix_gauge", "gap_report",
    "h0", "h_candidate", "h_ff", "integrate", "r_of_t", "solve_core",
    "track_branch", "v_of_t",
]
