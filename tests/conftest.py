from __future__ import annotations

import numpy as np
import pytest

from ffspin import (CoefficientTable, FastForwardProfile, ModelSpec,
                    THREE_SPIN_KAGOME, TWO_SPIN, coefficient_table, default_r_grid,
                    integrate, track_branch)

REFERENCE_V_BAR = 10.0
REFERENCE_T_FF = 1.0


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
    grid = default_r_grid(two_spec, profile.r_end(two_spec.r0))
    return track_branch(two_spec, grid)


@pytest.fixture(scope="session")
def three_branch(three_spec, profile):
    grid = default_r_grid(three_spec, profile.r_end(three_spec.r0))
    return track_branch(three_spec, grid)


@pytest.fixture(scope="session")
def two_table(two_spec, two_branch):
    return coefficient_table(two_spec, two_branch)


@pytest.fixture(scope="session")
def three_table(three_spec, three_branch):
    return coefficient_table(three_spec, three_branch)


@pytest.fixture(scope="session")
def two_run(two_spec, profile, two_branch, two_table):
    return integrate(two_spec, profile, branch=two_branch, table=two_table)


@pytest.fixture(scope="session")
def three_run(three_spec, profile, three_branch, three_table):
    return integrate(three_spec, profile, branch=three_branch, table=three_table)


@pytest.fixture(scope="session")
def three_run_no_driving(three_spec, profile, three_branch, three_table):
    return integrate(three_spec, profile, branch=three_branch,
                     table=CoefficientTable.zeros(three_branch.r_grid))


@pytest.fixture(scope="session")
def three_fast_runs(three_spec, three_branch, three_table):
    """(driven, undriven) three-spin trajectories at vbar=100, T=0.1: the
    reference ramp, R from 0 to 10, run ten times faster."""
    profile = FastForwardProfile(v_bar=100.0, t_ff=0.1)
    undriven = CoefficientTable.zeros(three_branch.r_grid)
    return tuple(integrate(three_spec, profile, branch=three_branch, table=table)
                 for table in (three_table, undriven))


def probabilities(psi: np.ndarray) -> np.ndarray:
    return np.abs(psi) ** 2
