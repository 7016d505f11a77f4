"""Settings live in the config tree only: no public stage re-declares one."""

import inspect
from dataclasses import fields

import pytest

import sparseflr.flr
import sparseflr.fpca
from sparseflr import FlrConfig, FpcaConfig

# Every config field, and the names stages once took for candidate lists
# and search objectives.
SETTING_NAMES = frozenset(
    {f.name for f in fields(FpcaConfig)}
    | {f.name for f in fields(FlrConfig)}
    | {"candidates", "objective", "bandwidths"}
)

PUBLIC_FUNCTIONS = {
    f"{module.__name__}.{name}": getattr(module, name)
    for module in (sparseflr.fpca, sparseflr.flr)
    for name in module.__all__
    if inspect.isfunction(getattr(module, name))
}


def test_the_stages_are_inspected():
    stages = ("estimate_mean", "estimate_covariance", "estimate_noise_variance", "select_ncomp")
    assert {f"sparseflr.fpca.{name}" for name in stages} <= PUBLIC_FUNCTIONS.keys()
    assert "sparseflr.flr.estimate_cross_covariance" in PUBLIC_FUNCTIONS


@pytest.mark.parametrize("name", sorted(PUBLIC_FUNCTIONS))
def test_no_public_function_declares_a_setting(name):
    clash = SETTING_NAMES & set(inspect.signature(PUBLIC_FUNCTIONS[name]).parameters)
    assert not clash, f"{name} takes setting parameter(s) {sorted(clash)}; read them from config"
