"""Importing the package loads no scipy module, no process pool and no
random generator."""

import os
import subprocess
import sys
from pathlib import Path

import scipy.constants

from hris_sim import geometry

ROOT = Path(__file__).resolve().parents[1]


def _loaded_by_import(package):
    """Modules of ``package`` and its subpackages that importing hris_sim
    and its CLI loads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, hris_sim, hris_sim.cli\n"
            f"print(*[m for m in sys.modules if (m + '.').startswith("
            f"{package!r} + '.')])")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_import_loads_no_scipy_module():
    assert _loaded_by_import("scipy") == []


def test_import_loads_no_multiprocessing_module():
    # a run loads the process pool only when it maps drops in workers
    assert _loaded_by_import("multiprocessing") == []


def test_import_loads_no_numpy_random():
    # the battery sizing never draws; a run loads it for its first generator
    assert _loaded_by_import("numpy.random") == []


def test_speed_of_light_equals_scipy_constant():
    assert geometry.C0 == scipy.constants.c
