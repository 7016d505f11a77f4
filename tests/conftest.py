"""Shared fixtures: a simulated cohort, a fitted model, exact truth objects."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from sparseflr import (
    FpcaModel,
    Interval,
    RegularGrid,
    SimConfig,
    SimDesign,
    SparseFunctionalSample,
    SubjectRecord,
    fit_flr,
    gen_pair,
)

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

DOMAIN = Interval(0.0, 10.0)


@pytest.fixture(scope="session")
def domain():
    return DOMAIN


@pytest.fixture(scope="session")
def grid():
    return RegularGrid(DOMAIN, 51)


@pytest.fixture(scope="session")
def design():
    return SimDesign(DOMAIN)


@pytest.fixture(scope="session")
def sparse_pair():
    cfg = SimConfig(n_subjects=60, seed=3)
    return gen_pair(cfg, np.random.default_rng(3))


@pytest.fixture(scope="session")
def fitted(sparse_pair):
    x_sample, y_sample, _ = sparse_pair
    return fit_flr(x_sample, y_sample)


def make_truth_model(design, grid, noise_var=0.25):
    """FpcaModel carrying the exact population quantities of the test design.

    Score-prediction formulas are algebraic in these arrays, so closed-form
    oracle values can be checked to near machine precision against a model
    built this way.
    """
    pts = grid.points
    return FpcaModel(
        grid=grid,
        mean=design.mu_x(pts),
        surface=design.cov_x(pts),
        noise_var=noise_var,
        eigenvalues=np.asarray(design.rho, dtype=float),
        eigenfunctions=design.psi(pts),
        n_components=2,
        mean_bandwidth=1.0,
        cov_bandwidth=1.0,
        n_subjects=1,
    )


def ragged_sample(ids, counts, seed):
    """Sample with the given per-subject observation counts (0 allowed) and
    times on a coarse lattice, so that subjects carry tied times."""
    rng = np.random.default_rng(seed)
    return SparseFunctionalSample(DOMAIN, tuple(
        SubjectRecord(sid, 0.5 * rng.integers(0, 21, n), rng.normal(size=n))
        for sid, n in zip(ids, counts)
    ))


@pytest.fixture(scope="session")
def truth_x_model(design, grid):
    return make_truth_model(design, grid)
