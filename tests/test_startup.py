"""Importing the package loads no scipy module."""

import os
import subprocess
import sys
from pathlib import Path

import scipy.constants

from hris_sim import geometry

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_scipy_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, hris_sim, hris_sim.cli\n"
            "print(*[m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_speed_of_light_equals_scipy_constant():
    assert geometry.C0 == scipy.constants.c
