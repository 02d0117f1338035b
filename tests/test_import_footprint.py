"""The package's entry points stay off ``scipy.stats`` at import time."""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("module", ["repro.cli", "repro.traces", "repro.service"])
def test_import_leaves_scipy_stats_out(module):
    # a fresh interpreter: this test process may have imported it already
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = f"import sys, {module}; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
