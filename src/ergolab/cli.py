"""Command-line entry point.

    ergolab <subcommand> --config experiment.ini [--seed N] [--out DIR]
                         [--threads N] [--format {csv,json}]

Subcommands select how far down the pipeline to go:

    simulate    deviation ladders only
    ldp-fit     ladders + exponential rate fits
    cover       ladders, fits, and the cover ladder
    dimension   everything up to the box-dimension verdict
    verify      ball-lemma and suspension-flow suites
    report      the full pipeline

Exit codes: 0 success, 2 configuration/usage problems, 1 runtime failures
(partial artifacts are flushed before exiting).  The ERGOLAB_OUT
environment variable supplies a default output directory when neither
--out nor the config names one.
"""

from __future__ import annotations

import argparse
import os
import sys as _sys

from .errors import StageError, ValidationError
from .runner import STAGES, load_config, run_pipeline, validate_config, write_artifacts

# each subcommand but verify runs runner.STAGES up to its last stage
_STAGES_FOR = {cmd: STAGES[:STAGES.index(last) + 1]
               for cmd, last in (("simulate", "ladders"), ("ldp-fit", "fits"), ("cover", "cover"),
                                 ("dimension", "dimension"), ("report", STAGES[-1]))}
_STAGES_FOR["verify"] = ("resolve", "space_average", "lemma", "flow")


def _build_parser():
    parser = argparse.ArgumentParser(prog="ergolab",
                                     description="deviation-set measurements, rate fits, "
                                                 "and dimension bounds for chaotic maps")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("simulate", "estimate deviation ladders"),
            ("ldp-fit", "fit exponential decay rates to the ladders"),
            ("cover", "build the cover ladder for the deviation set"),
            ("dimension", "compute the dimension bound and its verdict"),
            ("verify", "run the ball-lemma and flow check suites"),
            ("report", "run the full pipeline")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment INI file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="threads for the Lebesgue space average and the bands of "
                            "walked cover levels (never changes results)")
        p.add_argument("--format", choices=("csv", "json"), default="json",
                       help="artifact format (report.json is always written)")
    return parser


def _out_dir(args, cfg):
    if args.out:
        return args.out
    if cfg.out_dir:
        return cfg.out_dir
    return os.environ.get("ERGOLAB_OUT", ".")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
            validate_config(cfg)
        if args.threads < 1:
            raise ValidationError("threads: must be >= 1")
    except ValidationError as e:
        print(f"ergolab: {e}", file=_sys.stderr)
        return 2

    out = _out_dir(args, cfg)
    try:
        report = run_pipeline(cfg, threads=args.threads,
                              stages=_STAGES_FOR[args.command])
    except StageError as e:
        paths = write_artifacts(e.partial_report, out, args.format)
        print(f"ergolab: {e}", file=_sys.stderr)
        print(f"ergolab: partial artifacts in {paths[0]}", file=_sys.stderr)
        return 1
    except Exception as e:  # unexpected: still a runtime failure
        print(f"ergolab: {e}", file=_sys.stderr)
        return 1
    paths = write_artifacts(report, out, args.format)
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
