"""The short demos run to completion: each asserts its own results."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fastss

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", ["01_quickstart.py", "04_collision_model.py"])
def test_demo_exits_cleanly(demo):
    # The demos import fastss, so they see the package these tests import.
    source = str(Path(fastss.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True,
                            text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
