"""Importing the package loads no heavy scipy subpackage."""

import os
import subprocess
import sys
from pathlib import Path

import scipy.constants

from hris_sim import geometry

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("scipy.stats", "scipy.sparse", "scipy.constants")


def test_import_loads_no_heavy_scipy_subpackage():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, hris_sim, hris_sim.cli\n"
            f"print(*[m for m in {HEAVY!r} if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_speed_of_light_equals_scipy_constant():
    assert geometry.C0 == scipy.constants.c
