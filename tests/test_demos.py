"""Every demo script runs to completion against the current API."""

import os
import pathlib
import subprocess
import sys

import pytest

import spernerlab

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # Same import path as the suite, as in test_module_invocation.
    import_dir = os.path.dirname(os.path.dirname(spernerlab.__file__))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": import_dir})
    assert proc.returncode == 0, proc.stderr
