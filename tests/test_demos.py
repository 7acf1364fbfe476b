"""Every demo script runs to completion against the current API and prints
the same bytes as before: each demo is deterministic, and its stdout is
pinned by sha256."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import spernerlab

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_set_families.py": "0bab09b756763508bcc21a550787629404d8c6db3bd5bb7f2a30a16d7faebcf2",
    "02_compression.py": "5e21ef4c50d29410b5ad28ecda754ab51190ae05a2cd2c2ebd5cf33cf32ae16b",
    "03_cycle_method.py": "1cfbea642faf1a8449767fb2f0a5e0d0114634966163ff1bca8dd3a4d886ad9f",
    "04_coefficient_chain.py": "46c032466da0f0bb037cc5cd44bb20cdbfc22f3c27b3969b08c026f97ab2c855",
    "05_search_and_bounds.py": "c1904610562291e289fea3ec18ca3478adfb3dce65d7a7c32c99689c8497efde",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # Same import path as the suite, as in test_module_invocation.
    import_dir = os.path.dirname(os.path.dirname(spernerlab.__file__))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": import_dir})
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
