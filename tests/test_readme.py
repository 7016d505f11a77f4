"""The README's Python examples run as written, in order, in one namespace."""

import re
from pathlib import Path

from sparseflr import save_sample

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = python_blocks()
    assert len(blocks) >= 4
    namespace: dict = {}
    for block in blocks:
        if "load_sample(" in block:
            # the CSV example reads x.csv and y.csv from the working directory
            save_sample(namespace["x_sample"], str(tmp_path / "x.csv"))
            save_sample(namespace["y_sample"], str(tmp_path / "y.csv"))
            monkeypatch.chdir(tmp_path)
        exec(compile(block, str(README), "exec"), namespace)
