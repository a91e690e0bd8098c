"""Fast-forward (counterdiabatic) dynamics of small XY spin clusters."""

__version__ = "0.1.0"

from .model import ModelSpec, THREE_SPIN_KAGOME, TWO_SPIN
from .spectrum import track_branch
from .regularization import CoefficientTable, coefficient_table
from .fastforward import FastForwardProfile, integrate

__all__ = [
    "CoefficientTable", "FastForwardProfile", "ModelSpec", "THREE_SPIN_KAGOME",
    "TWO_SPIN", "coefficient_table", "integrate", "track_branch",
]
