"""One fresh interpreter for the benchmark: set-up time, and optionally a run.

    python3 child.py setup|run CONFIG.ini THREADS STAGES OUT_DIR

Prints one JSON line.  `setup_s` times `import ergolab` plus load_config,
which validates the config.  `kernel_s` times the speed kernel in this
process right after, on the CPU the set-up ran on.  `run` then runs the
pipeline once, writes its artifacts, and adds the report hash, the verdict
and the peak RSS of this process.
"""

import json
import resource
import sys
import time

from run import SRC, Speed, report_hash

mode, ini, threads, stages, out_dir = sys.argv[1:6]
t0 = time.perf_counter()
sys.path.insert(0, str(SRC))
import ergolab as E  # noqa: E402  (the import is what set-up time measures)

cfg = E.load_config(ini)
result = {"setup_s": time.perf_counter() - t0}
speed = Speed()
result["kernel_s"] = sorted(speed.kernel_s() for _ in range(3))[1]
if mode == "run":
    report = E.run_pipeline(cfg, threads=int(threads),
                            stages=tuple(stages.split(",")) if stages else None)
    E.write_artifacts(report, out_dir)
    result.update(sha256=report_hash(report), verdict=report.data.get("verdict"),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
print(json.dumps(result))
