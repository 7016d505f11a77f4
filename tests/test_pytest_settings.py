"""The suite's pytest settings keep a failing property test reportable."""

import shutil
import subprocess
import sys
from pathlib import Path

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
