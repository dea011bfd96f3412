from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

import bethe_dvf

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the subprocess runs the package these tests import, installed or not
PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(bethe_dvf.__file__)))

# sha256 of each demo's stdout, recorded before the generating series was
# written as one ordered product over the labels
DEMO_STDOUT = {
    "01_build_eigenvalue_sums.py":
        "65a1e8c3a98afce9ac9f6ab87bc61bac71ea735334c3fd14730481708e3c33cf",
    "02_exact_identities.py":
        "994dedeb0a6f90888e8c1d0a783b67f049e488df529df129a1f16138d0739189",
    "03_bethe_roots_and_poles.py":
        "dc9c90b3ca87e586405f12ec48467c4814f95c48d477a81e74b165ff816b7c4d",
    "04_tsystem_series_counts.py":
        "8019c0be0ec8dd2bc8e5d410967d66264521e1193ad80445678a8d15203af8b4",
}


def test_every_demo_is_pinned():
    assert sorted(DEMO_STDOUT) == sorted(
        f for f in os.listdir(os.path.join(REPO, "demos")) if f.endswith(".py"))


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT))
def test_demo_stdout_is_byte_stable(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (PKG_ROOT, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, os.path.join(REPO, "demos", demo)],
                          capture_output=True, env=env, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT[demo]
