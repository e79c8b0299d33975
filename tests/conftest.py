# first, so that numpy loads with the one BLAS thread of a cold command (see tlwaves.cli): run in process, a
# command at N=16384 then sums its inner products in the order of a cold one and writes its bytes
import tlwaves.cli  # noqa: F401

import numpy as np
import pytest

from tlwaves import oracle, solver
from tlwaves.grid import SpectralGrid
from tlwaves.params import make_parameters

# reference configuration shared by the solver, oracle, and acceptance suites
REF_OFFSET = 0.05
REF_HALF_LENGTH = 128.0
REF_MODES = 1024
ORACLE_STEP = 1e-3


@pytest.fixture(scope="session")
def elevation_params():
    return make_parameters(0.5, 0.8)


@pytest.fixture(scope="session")
def depression_params():
    return make_parameters(0.5, 0.5)


@pytest.fixture(scope="session")
def default_grid():
    return SpectralGrid(half_length=REF_HALF_LENGTH, n=REF_MODES)


def potential_curve(params, speed):
    """The oracle's curve of one wave, the record both seeds take."""
    return oracle.potential(oracle.TravelingWaveProblem(params=params, speed=speed))


def _sech2_seeded_solution(params, grid):
    # the sech^2 seed, not the default oracle seed, so that criterion 2 compares the solver
    # with the oracle from an independent start
    speed = params.c_crit + REF_OFFSET
    config = solver.SolverConfig(
        speed=speed,
        tol_residual=1e-10,
        max_iter=300,
        initial_guess=solver.auto_initial_guess(grid, potential_curve(params, speed)),
    )
    return solver.solve(grid, params, config)


@pytest.fixture(scope="session")
def elevation_solution(elevation_params, default_grid):
    return _sech2_seeded_solution(elevation_params, default_grid)


@pytest.fixture(scope="session")
def depression_solution(depression_params, default_grid):
    return _sech2_seeded_solution(depression_params, default_grid)


@pytest.fixture(scope="session")
def elevation_curve(elevation_params):
    return potential_curve(elevation_params, elevation_params.c_crit + REF_OFFSET)


@pytest.fixture(scope="session")
def elevation_oracle_profile(elevation_curve):
    # full half-domain so the spectral comparison covers every grid node
    return oracle.integrate_profile(elevation_curve, x_max=REF_HALF_LENGTH, step=ORACLE_STEP)


# ----------------------------------------------------------------------
# acceptance reporting: one pass/fail line per criterion in the summary

_ACCEPTANCE: list[tuple[int, str, bool, str]] = []


def record_criterion(number: int, description: str, passed: bool, detail: str = "") -> None:
    _ACCEPTANCE.append((number, description, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed, detail in sorted(_ACCEPTANCE):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number:2d}: {status}  {description}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
