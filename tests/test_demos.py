"""Every demo runs to completion and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fastss

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_exits_cleanly(demo, tmp_path):
    # The demos import fastss, so they see the package these tests import.
    # They run in a scratch directory: 03 writes its CSV report there.
    source = str(Path(fastss.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True,
                            text=True, timeout=300, cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
