from __future__ import annotations

import numpy as np
import pytest

from ffspin import (CoefficientTable, FastForwardProfile, ModelSpec,
                    THREE_SPIN_KAGOME, TWO_SPIN, coefficient_table, integrate,
                    track_branch)

REFERENCE_V_BAR = 10.0
REFERENCE_T_FF = 1.0
REFERENCE_GRID_POINTS = 2001


def ramp_grid(spec: ModelSpec, profile: FastForwardProfile,
              n_points: int = REFERENCE_GRID_POINTS) -> np.ndarray:
    """The uniform R grid of the run from the ramp start to its end."""
    return np.linspace(spec.r0, spec.r0 + profile.v_bar * profile.t_ff, n_points)


@pytest.fixture(scope="session")
def two_spec() -> ModelSpec:
    return ModelSpec(kind=TWO_SPIN)


@pytest.fixture(scope="session")
def three_spec() -> ModelSpec:
    return ModelSpec(kind=THREE_SPIN_KAGOME)


@pytest.fixture(scope="session")
def profile() -> FastForwardProfile:
    return FastForwardProfile(v_bar=REFERENCE_V_BAR, t_ff=REFERENCE_T_FF)


@pytest.fixture(scope="session")
def two_branch(two_spec, profile):
    return track_branch(two_spec, ramp_grid(two_spec, profile))


@pytest.fixture(scope="session")
def three_branch(three_spec, profile):
    return track_branch(three_spec, ramp_grid(three_spec, profile))


@pytest.fixture(scope="session")
def two_table(two_spec, two_branch):
    return coefficient_table(two_branch)


@pytest.fixture(scope="session")
def three_table(three_spec, three_branch):
    return coefficient_table(three_branch)


@pytest.fixture(scope="session")
def two_run(two_spec, profile, two_table):
    return integrate(profile, table=two_table)


@pytest.fixture(scope="session")
def three_run(three_spec, profile, three_table):
    return integrate(profile, table=three_table)


@pytest.fixture(scope="session")
def three_run_no_driving(three_spec, profile, three_branch):
    return integrate(profile,
                     table=CoefficientTable.zeros(three_spec, three_branch.r_grid))


@pytest.fixture(scope="session")
def three_fast_runs(three_spec, three_branch, three_table):
    """(driven, undriven) three-spin trajectories at vbar=100, T=0.1: the
    reference ramp, R from 0 to 10, run ten times faster."""
    profile = FastForwardProfile(v_bar=100.0, t_ff=0.1)
    undriven = CoefficientTable.zeros(three_spec, three_branch.r_grid)
    return tuple(integrate(profile, table=table)
                 for table in (three_table, undriven))


def probabilities(psi: np.ndarray) -> np.ndarray:
    return np.abs(psi) ** 2
