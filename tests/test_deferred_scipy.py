"""scipy.stats and scipy.special are registered when the program is
imported but run only when a Gaussian law or a KS test first needs them; the
program does not import scipy.integrate at all, nor concurrent.futures (the
toral kernel's threads are plain ``threading`` threads).  The deferred
modules must give the same values as direct scipy calls."""

import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

SCRIPT = f"""
import math, sys
sys.path.insert(0, {str(BENCH)!r})
from common import import_program
import_program()
from importlib import resources
from rwscenery import cli
assert cli.main(["validate", str(resources.files("rwscenery.fixtures") / "lln_variance.json")]) == 0
assert "scipy.stats._stats_py" not in sys.modules
assert "scipy.integrate" not in sys.modules
# the toral kernel's threads add no import time to a run's set-up
assert "concurrent.futures" not in sys.modules

import scipy
assert scipy.stats.norm.cdf(0.0) == 0.5
assert scipy.stats is sys.modules["scipy.stats"]

import numpy as np
import scipy.special
from rwscenery import scenery
from rwscenery.rng import u64_to_uniform
w = np.random.default_rng(5).integers(0, 2**64, size=4096, dtype=np.uint64)
assert (scenery.Gaussian().values(w) == scipy.special.ndtri(u64_to_uniform(w))).all()

norm = scipy.stats.norm
for level in (-0.5, 1.0, 2.5):
    tg = scenery.TruncatedGaussian(level)
    shift = norm.pdf(level)
    assert tg._shift == shift
    assert tg._scale == math.sqrt(norm.cdf(level) - level * norm.pdf(level) - shift**2)
"""


def test_scipy_runs_only_when_needed_and_gives_the_same_values():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=BENCH.parent, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
