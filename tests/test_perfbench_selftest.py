"""The benchmark's own self-tests, run as part of the suite.

Among them, the traced pipeline must hash the same as the untraced one, so
a change that breaks a span seam (an ensemble driven through anything but
points() and advance(), say) fails here rather than only in a benchmark run.
"""

import contextlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ergolab as E
from ergolab import deviation

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def _bench_runner():
    """perfbench/run.py as a module: its WORKLOADS and report_hash."""
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def _spans():
    """perfbench/spans.py's Tracer and instrument."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from spans import Tracer, instrument
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return Tracer, instrument


@pytest.mark.parametrize("workload", sorted(p.stem for p in (BENCH / "workloads").glob("*.ini")))
def test_workload_reports_match_the_benchmark_reference(workload):
    # the report bytes every change keeps: each benchmark workload, with its
    # threads and stages, at seed 0 and at its config's seed, hashes as the
    # stored reference does, with the expected verdict; and so does a run at
    # seed 0 under the benchmark's tracer, whose ensembles forward only
    # points() and advance()
    run = _bench_runner()
    Tracer, instrument = _spans()
    threads, stages = run.WORKLOADS[workload]
    ref = json.loads((BENCH / "reference.json").read_text())[workload]
    cfg = E.load_config(BENCH / "workloads" / f"{workload}.ini")
    for seed, tracer in ((0, None), (cfg.seed, None), (0, Tracer())):
        cfg.seed = seed
        with instrument(tracer) if tracer else contextlib.nullcontext():
            report = E.run_pipeline(cfg, threads=threads, stages=stages)
        assert run.report_hash(report) == ref["sha256"][str(seed)], (seed, tracer)
        assert report.data.get("verdict") == ref["verdict"], (seed, tracer)
    assert any(s.name == "systems.ensemble.points" for s in tracer.spans)


def test_perfbench_self_tests_pass():
    proc = subprocess.run([sys.executable, "perfbench/test_perfbench.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_ladder_recount_runs_through_the_traced_ensemble_seam():
    # a threshold set to one sample's exact deviation forces a recount; under
    # the benchmark's tracer the recount's draw is a traced ensemble too
    Tracer, instrument = _spans()
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
