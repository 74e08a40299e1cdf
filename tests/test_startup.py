"""Importing the package loads no scipy module, and no process pool."""

import os
import subprocess
import sys
from pathlib import Path

import scipy.constants

from hris_sim import geometry

ROOT = Path(__file__).resolve().parents[1]


def _loaded_by_import(package):
    """Modules of ``package`` that importing hris_sim and its CLI loads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, hris_sim, hris_sim.cli\n"
            f"print(*[m for m in sys.modules if m.split('.')[0] == {package!r}])")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_import_loads_no_scipy_module():
    assert _loaded_by_import("scipy") == []


def test_import_loads_no_multiprocessing_module():
    # a run loads the process pool only when it maps drops in workers
    assert _loaded_by_import("multiprocessing") == []


def test_speed_of_light_equals_scipy_constant():
    assert geometry.C0 == scipy.constants.c
