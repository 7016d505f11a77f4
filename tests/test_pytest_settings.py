"""The suite's pytest settings keep a failing property test reportable, and
the numeric literals Hypothesis mines from the package stay in view."""

import importlib
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sparseflr

ROOT = Path(__file__).resolve().parents[1]

FAILING_THEN_PASSING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, deadline=None)
@given(st.integers())
def test_property_fails(n):
    assert n < 5


def test_later():
    pass
'''


def test_failing_property_test_reports_its_example_and_the_run_goes_on(tmp_path):
    # A falsifying example sends Hypothesis into code that emits a
    # DeprecationWarning on import; under ``filterwarnings = ["error"]``
    # alone that ended the whole run with INTERNALERROR before the example
    # was printed.
    shutil.copy(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_property.py").write_text(FAILING_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "tests"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_property_fails(" in out
    assert "PASSED tests/test_property.py::test_later" in out
    assert run.returncode == 1


# The integer and float literals Hypothesis 6.155.2 mines from the sparseflr
# modules. Hypothesis mixes the literals of every imported local module into
# its draws, so the derandomized property tests draw other examples whenever
# one of these numbers changes.
MINED_INTEGERS = [100, 200, 401, 1000, 20000]
MINED_FLOATS = [
    -225.46268785411937, -82.03722561683334, -59.96335010141079, -56.67628574690703,
    -2.0, -1.875, -1.2391658386738125, -1.1833162112133, -1.0, -0.75,
    -0.14218292285478779, -0.1402560791713545, -0.03808064076915783,
    -0.03504246268278482, -0.0009332594808954574, -0.0008574567851546854, 0.0, 1e-300,
    1e-12, 1e-10, 1e-09, 6.239745391849833e-09, 6.790194080099813e-09, 1e-08, 1e-06,
    2.6580697468673755e-06, 2.8924786474538068e-06, 0.00030158155350823543,
    0.00032801446468212774, 0.012371663481782003, 0.013420400608854318, 0.05, 0.075,
    0.08, 0.1, 0.11, 0.12, 0.1353352832366127, 0.16, 0.18, 0.2, 0.20148538954917908,
    0.21623699359449663, 0.24, 0.25, 0.27, 0.35, 0.4, 0.5, 0.75, 0.9375, 0.95, 1.0,
    1.3330346081580755, 1.3770209948908132, 1.9544885833814176, 2.0,
    2.1866330685079025, 2.504649462083094, 2.5066282746310007, 3.2377489177694603,
    3.6798356385616087, 3.9388102529247444, 4.0, 4.0554489230596245, 4.676279128988815,
    6.02427039364742, 6.915228890689842, 8.0, 10.0, 13.931260938727968,
    14.684956192885803, 15.04253856929075, 15.779988325646675, 15.90562251262117,
    31.525109459989388, 41.3172038254672, 44.08050738932008, 45.39076351288792,
    57.16281922464213, 86.36024213908905, 98.00107541859997, 200.26021238006066,
]


def test_hypothesis_mined_literals_are_pinned():
    constants_ast = pytest.importorskip("hypothesis.internal.constants_ast")
    names = ["sparseflr"] + [m.name for m in pkgutil.walk_packages(sparseflr.__path__, "sparseflr.")]
    integers, floats = set(), set()
    for name in names:
        mined = constants_ast.constants_from_module(importlib.import_module(name))
        integers |= mined.integers
        floats |= mined.floats
    assert (sorted(integers), sorted(floats)) == (MINED_INTEGERS, MINED_FLOATS), (
        "the numeric literals in src/sparseflr changed, and with them the examples "
        "the derandomized property tests draw: update the pin above, re-run the "
        "property tests, and record any failure they now draw as a FOUND line in "
        "CHANGES.md; never re-seed them to make it pass"
    )
