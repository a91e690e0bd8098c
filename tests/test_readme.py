"""README's library example, run as a user would: its fenced ``python`` block
in a fresh interpreter, with warnings as errors."""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ffspin

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_prints_what_its_comments_say():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    src = str(Path(ffspin.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-W", "error", "-c", blocks[0]], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout.splitlines()
    w1, fidelity, populations, bare = out
    assert float(w1) == pytest.approx(0.05, abs=1e-12)
    assert 1.0 - 1e-12 < float(fidelity) <= 1.0 + 1e-12
    assert [float(p) for p in populations.strip("[]").split()] == pytest.approx(
        [(2 + 2 ** 0.5) / 4, 0.0, 0.0, (2 - 2 ** 0.5) / 4], abs=1e-8)
    assert float(bare) == pytest.approx(0.754258, abs=1e-6)
