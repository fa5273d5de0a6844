"""Bit identity: ``tests/hash_outputs.py`` prints the committed table.

The table in ``output_hashes.json`` is keyed by a host fingerprint, numpy's
version and the build of the OpenBLAS bundled with it, since a different BLAS
build or kernel may round products differently. On a host with no table the
test skips and prints its fingerprint. A change that moves output bits on
purpose updates the table and says why.
"""

import ctypes
import glob
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))


def host_fingerprint() -> str:
    """numpy's version and the config string of its bundled OpenBLAS (build, core, threads)."""
    config = "no bundled OpenBLAS"
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        get_config = getattr(ctypes.CDLL(path), "scipy_openblas_get_config64_", None)
        if get_config is not None:
            get_config.restype = ctypes.c_char_p
            config = " ".join(get_config().decode().split())
    return f"numpy {np.__version__}, {config}"


def test_outputs_hash_to_the_committed_table():
    with open(os.path.join(HERE, "output_hashes.json"), encoding="utf-8") as fh:
        tables = json.load(fh)
    fingerprint = host_fingerprint()
    if fingerprint not in tables:
        pytest.skip(f"no committed table for host {fingerprint!r}")
    run = subprocess.run(
        [sys.executable, os.path.join(HERE, "hash_outputs.py")], capture_output=True, text=True, timeout=600
    )
    assert run.returncode == 0, run.stderr
    rows = dict(re.findall(r"^\| (.+) \| `([0-9a-f]{16})` \|$", run.stdout, flags=re.M))
    assert rows == tables[fingerprint]
