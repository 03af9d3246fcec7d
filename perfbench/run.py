"""ergolab benchmark: closed-loop runs of the public pipeline API.

    python3 perfbench/run.py --workload doubling-report --seed 42 --seconds 20 --trace 0

One client runs one workload at a time: load_config -> run_pipeline ->
write_artifacts, the next run starting when the last one has written its
report.  The workload seed becomes the config seed; the program sees only
the resulting config.  Every run is checked: it must not raise, and the
sha256 of its timings-free report must equal the stored reference for that
(workload, seed), or, for a seed without one, the first run's hash.  The
verdict must be the workload's expected one.

--trace 0 prints the end-to-end metrics (wall_s, wall_tail_s, setup_s,
peak_rss_mb); --trace 1 prints the per-layer metrics of layers.PER_LAYER.
Times are scaled to a reference machine speed (see Speed).  The line
before the result holds provenance, the report hash, failed_frac, the raw
wall times, and the sample count and percentile behind wall_tail_s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

LDP_FIT = ("resolve", "space_average", "ladders", "fits")
# name -> (program threads, stages; None runs the full report)
WORKLOADS = {
    "doubling-report": (1, None),
    "cat-report": (2, None),
    "ladders-deep": (2, LDP_FIT),
}
END_TO_END = (("wall_s", "s"), ("wall_tail_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
SETUP_CHILDREN = 8     # fresh interpreters timing import + load_config
RSS_CHILDREN = 3       # fresh interpreters doing one whole run each
TAIL_BEYOND = 10


def import_ergolab():
    """Import ergolab from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "ergolab" / "__init__.py").is_file():
        print(f"perfbench: no ergolab sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import ergolab
    return ergolab


def report_hash(report) -> str:
    """sha256 of the report with its wall-clock timings left out."""
    from ergolab import report_json
    return hashlib.sha256(report_json(report, include_timings=False).encode()).hexdigest()


def tail(values):
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With n sorted samples, rank k has n - k samples above it, so the rank is
    n - 10 and the percentile 100 (n - 10) / n.  Fewer than 11 samples have
    no such percentile; the maximum is returned as percentile 100.
    """
    xs = sorted(values)
    k = len(xs) - TAIL_BEYOND
    if k < 1:
        return xs[-1], 100.0
    return xs[k - 1], 100.0 * k / len(xs)


class Speed:
    """How fast the shared machine runs right now, from a fixed kernel.

    Load from neighbouring machines on the same host slows every run by up
    to about 1.8x, in phases of seconds to minutes, which a median of raw
    wall times inherits.  Between runs the kernel (numpy array work and a
    Python loop) runs on the calling thread.  A run's wall time is
    multiplied by REF_S over the mean kernel time just before and after
    it, giving seconds at the speed the kernel had on the reference
    machine (an unloaded 2-vCPU Xeon).
    """

    REF_S = 0.0059

    def __init__(self):
        import numpy as np
        self.np = np
        self.x = np.linspace(0.0, 1.0, 1 << 17)

    def kernel_s(self) -> float:
        np, x = self.np, self.x
        t0 = time.perf_counter()
        for _ in range(4):
            np.cos(6.283 * x) + x * x
        s = 0
        for i in range(15000):
            s += i & 7
        return time.perf_counter() - t0

    def scale(self, before, after) -> float:
        return self.REF_S / (0.5 * (before + after))


class Checker:
    """Counts attempted and failed runs of one workload and seed."""

    def __init__(self, reference, verdict):
        self.reference = reference
        self.verdict = verdict
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def count(self, problem=None) -> bool:
        """Record one attempted run; problem is None when it passed."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)
        return problem is None

    def check(self, sha, verdict) -> bool:
        """Record a run that produced a report with this hash and verdict."""
        if self.first is None:
            self.first = sha
        expected = self.reference or self.first
        if sha != expected:
            return self.count(f"report sha256 {sha} differs from {expected}")
        if verdict != self.verdict:
            return self.count(f"verdict {verdict!r}, expected {self.verdict!r}")
        return self.count()


class Runner:
    """One workload at one seed: timed runs in this process and in children."""

    def __init__(self, E, workload, seed):
        self.E = E
        self.workload = workload
        self.threads, self.stages = WORKLOADS[workload]
        cfg = E.load_config(HERE / "workloads" / f"{workload}.ini")
        cfg.seed = seed
        E.validate_config(cfg)
        self.cfg = cfg
        self.out = OUT / workload
        self.out.mkdir(parents=True, exist_ok=True)
        self.ini = self.out / "config.ini"
        self.ini.write_text(E.config_to_ini(cfg))
        ref = json.loads((HERE / "reference.json").read_text())[workload]
        self.reference = ref["sha256"].get(str(seed))
        self.checker = Checker(self.reference, ref["verdict"])
        self.last_report = None
        self.speed = Speed()

    def run(self, threads=None):
        """Run once and check it; returns (wall, pipeline_s, write_s, report)."""
        t0 = time.perf_counter()
        try:
            report = self.E.run_pipeline(self.cfg, threads=threads or self.threads,
                                         stages=self.stages)
            t1 = time.perf_counter()
            self.E.write_artifacts(report, self.out)
            t2 = time.perf_counter()
        except Exception as e:  # a failing run is counted, not fatal
            wall = time.perf_counter() - t0
            self.checker.count(f"{type(e).__name__}: {e}")
            return wall, wall, 0.0, None
        self.checker.check(report_hash(report), report.data.get("verdict"))
        self.last_report = report
        return t2 - t0, t1 - t0, t2 - t1, report

    def repeat(self, fn, seconds=0.0, count=0):
        """Call fn until `count` calls are made and `seconds` have passed.

        Returns (result, wall-time scale) per call; the scale comes from the
        speed kernel timed before and after the call.
        """
        out = []
        before = self.speed.kernel_s()
        end = time.perf_counter() + seconds
        while len(out) < max(count, 1) or time.perf_counter() < end:
            result = fn()
            after = self.speed.kernel_s()
            out.append((result, self.speed.scale(before, after)))
            before = after
        return out

    def child(self, mode):
        """One fresh interpreter; returns its JSON result, or None if it failed."""
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(self.ini),
               str(self.threads), ",".join(self.stages or ()), str(self.out / "child")]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired:
            self.checker.count(f"child {mode} timed out")
            return None
        if proc.returncode != 0:
            self.checker.count(f"child {mode} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")
            return None
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if mode == "run":
            self.checker.check(res["sha256"], res["verdict"])
        return res


def end_to_end(runner, seconds):
    runner.run()  # warm-up: caches fill and the seed's hash is fixed
    runs = runner.repeat(runner.run, seconds=seconds)
    walls = [r[0] * k for r, k in runs]
    children = [runner.child("setup") for _ in range(SETUP_CHILDREN)]
    full = [runner.child("run") for _ in range(RSS_CHILDREN)]
    ref = Speed.REF_S
    setups = [c["setup_s"] * ref / c["kernel_s"] for c in children + full if c]
    rss = [c["peak_rss_mb"] for c in full if c]
    if runner.workload == "ladders-deep":
        runner.run(threads=1)  # thread invariance: same hash at threads=1
    tail_value, tail_pct = tail(walls)
    raw = [r[0] for r, _ in runs]
    metrics = {"wall_s": statistics.median(walls), "wall_tail_s": tail_value,
               "setup_s": statistics.median(setups) if setups else 0.0,
               "peak_rss_mb": statistics.median(rss) if rss else 0.0}
    extra = {"wall_samples": len(walls), "wall_tail_percentile": tail_pct,
             "raw_wall_s": statistics.median(raw), "raw_wall_tail_s": tail(raw)[0],
             "speed_scale": statistics.median(k for _, k in runs),
             "setup_samples": len(setups), "peak_rss_samples": len(rss)}
    return metrics, extra


def per_layer(runner, seconds):
    from layers import layer_metrics
    from spans import Tracer, instrument, untraced_cover_args

    E = runner.E
    runner.run()
    plain = [r[0] * k for r, k in runner.repeat(runner.run, seconds=seconds / 2.0)]
    tracer = Tracer()
    samples = []

    def traced_run():
        tracer.spans.clear()
        tracer.run += 1
        wall, pipeline_s, write_s, report = runner.run()
        if report is not None:
            size = len(E.report_json(report, include_timings=False).encode())
            samples.append(layer_metrics(tracer.spans, report, pipeline_s, write_s, size))
        return wall

    with instrument(tracer):
        traced = [w * k for w, k in runner.repeat(traced_run, seconds=seconds / 2.0)]
    tracer.spans.clear()
    names = samples[0].keys() if samples else ()
    metrics = {n: statistics.median(s[n] for s in samples) for n in names}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["dimension.cover.thread_scaling"] = 0.0
    if runner.last_report is not None and "dimension.build_cover_ladder" in tracer.last_args:
        # the cover stage alone, untraced, at threads=1 and threads=2
        args, kwargs = untraced_cover_args(tracer)
        expected = [e["card"] for e in runner.last_report.data["cover"]["entries"]]

        def cover(threads):
            t0 = time.perf_counter()
            ladder = E.build_cover_ladder(*args, **{**kwargs, "threads": threads})
            return time.perf_counter() - t0, [e.card for e in ladder.entries]

        cover_s = {}
        for threads in (1, 2):
            [((elapsed, cards), k)] = runner.repeat(lambda: cover(threads), count=1)
            cover_s[threads] = elapsed * k
            runner.checker.count(None if cards == expected else
                                 f"cover cards at threads={threads}: {cards} != {expected}")
        metrics["dimension.cover.thread_scaling"] = cover_s[1] / cover_s[2]
    extra = {"traced_samples": len(traced), "untraced_samples": len(plain)}
    return metrics, extra


def provenance(workload):
    """Versions, hardware and commit the numbers were measured with."""
    import platform
    from importlib import metadata

    import numpy

    def read(path, default="unknown"):
        try:
            return Path(path).read_text()
        except OSError:
            return default

    cpu = "unknown"
    for line in read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    llc = "unknown"
    levels = sorted(caches.glob("index*/level"), key=lambda p: int(read(p, "0")))
    if levels:
        llc = read(levels[-1].parent / "size").strip()
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    head = read(ROOT / ".git" / "HEAD", "").strip()
    commit = head or "unknown"
    if head.startswith("ref: "):
        commit = read(ROOT / ".git" / head[5:], "unknown").strip()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "cpu": cpu, "nproc": os.cpu_count(),
            "llc": llc, "threads": WORKLOADS[workload][0], "commit": commit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    E = import_ergolab()
    try:
        runner = Runner(E, args.workload, args.seed)
        if args.trace:
            from layers import PER_LAYER
            metrics, extra = per_layer(runner, args.seconds)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, extra = end_to_end(runner, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    chk = runner.checker
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "report_sha256": chk.first, "reference_sha256": runner.reference,
        "failed_frac": {"value": chk.failed / chk.attempted, "unit": "frac"},
        **extra, "problems": chk.problems, "provenance": provenance(args.workload)}))
    print(json.dumps({
        "correct": chk.failed == 0, "attempted": chk.attempted, "failed": chk.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
