"""Each public name and each CLI setting is declared once.

A module's ``__all__`` is the only list of its public names, and the package
exports their union. A CLI flag takes its default and choices from the
library type or constant that owns the setting.
"""

import argparse

import pytest

import sparseflr
from sparseflr import cli, data, errors, flr, fpca, serialize, simulation, smoothing
from sparseflr import FpcaConfig, SimConfig

MODULES = (data, errors, flr, fpca, serialize, simulation, smoothing)


def test_package_exports_the_union_of_the_module_lists():
    union = {name for module in MODULES for name in module.__all__}
    assert set(sparseflr.__all__) == union
    assert len(sparseflr.__all__) == len(union)


def test_no_name_is_public_in_two_modules():
    owners = {}
    for module in MODULES:
        for name in module.__all__:
            owners.setdefault(name, []).append(module.__name__)
    shared = {name: mods for name, mods in owners.items() if len(mods) > 1}
    assert not shared


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    for name in module.__all__:
        assert getattr(sparseflr, name) is getattr(module, name)


def _subparser(command: str) -> argparse.ArgumentParser:
    action = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices[command]


def _action(command: str, dest: str) -> argparse.Action:
    return next(a for a in _subparser(command)._actions if a.dest == dest)


_FIT, _SIM = FpcaConfig(), SimConfig()

# (command, flag destination, the library's default)
DEFAULTS = [
    *[
        (command, dest, getattr(_FIT, field))
        for command in ("fit", "simulate")
        for dest, field in (
            ("grid_points", "n_grid"),
            ("kernel", "kernel"),
            ("bandwidth_objective", "bandwidth_objective"),
            ("max_components", "max_components"),
        )
    ],
    *[
        ("simulate", dest, getattr(_SIM, dest))
        for dest in ("sparsity", "score_dist", "n_runs", "n_subjects", "n_new", "seed",
                     "max_failure_rate")
    ],
    ("fit", "x_columns", data.DEFAULT_COLUMNS),
    ("fit", "y_columns", data.DEFAULT_COLUMNS),
    ("predict", "x_columns", data.DEFAULT_COLUMNS),
    ("predict", "level", flr.BAND_LEVEL),
]


@pytest.mark.parametrize("command, dest, default", DEFAULTS)
def test_flag_default_is_the_library_default(command, dest, default):
    assert _action(command, dest).default == default


CHOICES = [
    ("fit", "kernel", smoothing.KERNEL_NAMES),
    ("fit", "bandwidth_objective", smoothing.BANDWIDTH_OBJECTIVES),
    ("simulate", "kernel", smoothing.KERNEL_NAMES),
    ("simulate", "bandwidth_objective", smoothing.BANDWIDTH_OBJECTIVES),
    ("simulate", "sparsity", simulation.SPARSITIES),
    ("simulate", "score_dist", simulation.SCORE_DISTS),
]


@pytest.mark.parametrize("command, dest, names", CHOICES)
def test_flag_choices_are_the_names_the_library_accepts(command, dest, names):
    assert tuple(_action(command, dest).choices) == names

