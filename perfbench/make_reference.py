"""Regenerate reference.json: timings-free report hashes and verdicts.

    python3 perfbench/make_reference.py

For every workload it runs the pipeline at seeds 0..63 and at the config's
own seed, and stores each report's sha256 and the workload's verdict, which
must not depend on the seed.  The benchmark counts a run whose hash or
verdict differs as failed, so regenerate only when report bytes change on
purpose, and say why in CHANGES.md.
"""

import json

from run import HERE, WORKLOADS, import_ergolab, report_hash

SEEDS = range(64)


def main():
    E = import_ergolab()
    ref = {}
    for name, (threads, stages) in WORKLOADS.items():
        cfg = E.load_config(HERE / "workloads" / f"{name}.ini")
        default = cfg.seed
        hashes, verdicts = {}, set()
        for seed in sorted(set(SEEDS) | {default}):
            cfg.seed = seed
            report = E.run_pipeline(cfg, threads=threads, stages=stages)
            hashes[str(seed)] = report_hash(report)
            verdicts.add(report.data.get("verdict"))
        if len(verdicts) != 1:
            raise SystemExit(f"{name}: the verdict depends on the seed: {verdicts}")
        ref[name] = {"default_seed": default, "verdict": verdicts.pop(), "sha256": hashes}
        print(name, ref[name]["verdict"], hashes[str(default)])
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
