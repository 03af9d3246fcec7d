"""The benchmark's own self-tests, run as part of the suite.

Among them, the traced pipeline must hash the same as the untraced one, so
a change that breaks a span seam (an ensemble driven through anything but
points() and advance(), say) fails here rather than only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

import ergolab as E
from ergolab import deviation

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_self_tests_pass():
    proc = subprocess.run([sys.executable, "perfbench/test_perfbench.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_ladder_recount_runs_through_the_traced_ensemble_seam():
    # a threshold set to one sample's exact deviation forces a recount; under
    # the benchmark's tracer the recount's draw is a traced ensemble too
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from spans import Tracer, instrument
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    sysd = E.get_system("doubling")
    obs = E.get_observable("cos1", sysd)
    ens = E.sample_orbit_ensemble(sysd, 5, 0, 1)
    tie = abs(float(obs.fn(ens.points())[0]))      # sample 0's deviation at n = 1
    args = (sysd, obs, 0.0, [tie, 0.5], [1, 4], 3000, 5)
    plain = deviation._hit_grid(*args)
    tracer = Tracer()
    with instrument(tracer):
        traced = deviation._hit_grid(*args)
    assert np.array_equal(traced, plain)
    draws = [s for s in tracer.spans if s.name == "systems.sample_orbit_ensemble"]
    assert len(draws) == 2                            # the chunk, then its recount
