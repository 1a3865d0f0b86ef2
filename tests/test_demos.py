"""The worked examples in demos/ print exactly what they printed before."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# sha256 of each demo's stdout
DEMO_STDOUT = {
    "flat_star.py":
        "f1eefcf98366f91320c690f583da1ae33297f60a66e22332440dfced3bd5e345",
    "holomorphic_ops.py":
        "0902d2c5514178d5617a8244c6bc546b1cf25330453bfe7cc41b70fdfc4e76bc",
    "sphere_kinetic.py":
        "29cfbaa7cd8e721a2c6c7fd7d432181840e2f0a1310ac5e9e20c7f746e9d46b3",
}


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT))
def test_demo_prints_the_same(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                         capture_output=True, env=env, check=True)
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_STDOUT[demo]
