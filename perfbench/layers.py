"""Per-layer metrics of one traced pipeline run, from its spans and report.

Names, units and the better direction are listed once, in PER_LAYER;
BENCHMARK.json repeats them and the self-tests check that the two agree.
"""

from __future__ import annotations

from collections import defaultdict

from spans import self_times

TIMED_STAGES = ("space_average", "ladders", "cover", "lemma", "flow")

PER_LAYER = (
    [(f"runner.stage.{st}_s", "s", "lower") for st in TIMED_STAGES] + [
        ("runner.unstaged_s", "s", "lower"),
        ("runner.write_artifacts_s", "s", "lower"),
        ("runner.report_bytes", "count", "lower"),
        ("rng.blocks", "count", "lower"),
        ("rng.raw_blocks_s", "s", "lower"),
        ("rng.words_per_s", "words/s", "higher"),
        ("systems.ensemble.sample_steps", "count", "lower"),
        ("systems.ensemble.advance_s", "s", "lower"),
        ("systems.ensemble.points_s", "s", "lower"),
        ("systems.ensemble.sample_steps_per_s", "steps/s", "higher"),
        ("systems.step.point_steps", "count", "lower"),
        ("systems.step_s", "s", "lower"),
        ("systems.step.points_per_call", "points/call", "higher"),
        ("systems.space_average_s", "s", "lower"),
        ("observables.points", "count", "lower"),
        ("observables.fn_s", "s", "lower"),
        ("observables.points_per_s", "points/s", "higher"),
        ("observables.points_per_call", "points/call", "higher"),
        ("deviation.ladders_s", "s", "lower"),
        ("deviation.self_s", "s", "lower"),
        ("deviation.sample_steps_per_s", "steps/s", "higher"),
        ("deviation.fit_s", "s", "lower"),
        ("dimension.cover_s", "s", "lower"),
        ("dimension.cover.self_s", "s", "lower"),
        ("dimension.cover.examined_cells", "count", "lower"),
        ("dimension.cover.cells_per_s", "cells/s", "higher"),
        ("dimension.cover.point_evals", "count", "lower"),
        ("dimension.cover.hit_ratio", "ratio", "higher"),
        ("dimension.cover.thread_scaling", "ratio", "higher"),
        ("dimension.lemma_s", "s", "lower"),
        ("dimension.lemma.acceptance", "ratio", "higher"),
        ("flows.suite_s", "s", "lower"),
        ("flows.time_average.calls", "count", "lower"),
        ("flows.time_average_s", "s", "lower"),
        ("flows.step.calls", "count", "lower"),
        ("flows.lipschitz_s", "s", "lower"),
        ("flows.states_per_s", "states/s", "higher"),
        ("flows.self_s", "s", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ])


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, report, pipeline_s, write_s, report_bytes) -> dict:
    """Every PER_LAYER metric except thread_scaling and overhead_frac.

    Busy times (`_s` of leaf layers) sum span durations over all threads.
    `self_s` subtracts the time child spans of other layers cover.  A layer
    the workload never calls reports 0.
    """
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    own = self_times(spans)

    def busy(name):
        return sum(s.duration for s in by[name])

    def work(name):
        return sum(s.count for s in by[name])

    def self_s(names):
        return sum(own[s.sid] for n in names for s in by[n])

    data, timings = report.data, report.timings
    m = {f"runner.stage.{st}_s": timings.get(st, 0.0) for st in TIMED_STAGES}
    m["runner.unstaged_s"] = pipeline_s - sum(timings.values())
    m["runner.write_artifacts_s"] = write_s
    m["runner.report_bytes"] = report_bytes

    blocks, rng_s = work("rng.raw_blocks"), busy("rng.raw_blocks")
    m["rng.blocks"] = blocks
    m["rng.raw_blocks_s"] = rng_s
    m["rng.words_per_s"] = _ratio(4 * blocks, rng_s)

    steps, advance_s = work("systems.ensemble.advance"), busy("systems.ensemble.advance")
    m["systems.ensemble.sample_steps"] = steps
    m["systems.ensemble.advance_s"] = advance_s
    m["systems.ensemble.points_s"] = busy("systems.ensemble.points")
    m["systems.ensemble.sample_steps_per_s"] = _ratio(steps, advance_s)
    point_steps = work("systems.step")
    m["systems.step.point_steps"] = point_steps
    m["systems.step_s"] = busy("systems.step")
    m["systems.step.points_per_call"] = _ratio(point_steps, len(by["systems.step"]))
    m["systems.space_average_s"] = busy("systems.srb_space_average")

    points, fn_s = work("observables.fn"), busy("observables.fn")
    m["observables.points"] = points
    m["observables.fn_s"] = fn_s
    m["observables.points_per_s"] = _ratio(points, fn_s)
    m["observables.points_per_call"] = _ratio(points, len(by["observables.fn"]))

    ladders_s = busy("deviation.build_deviation_ladders")
    m["deviation.ladders_s"] = ladders_s
    m["deviation.self_s"] = self_s(["deviation.build_deviation_ladders"])
    m["deviation.sample_steps_per_s"] = _ratio(steps, ladders_s)
    m["deviation.fit_s"] = busy("deviation.fit_rate_function")

    cover = data.get("cover") or {}
    cover_s = busy("dimension.build_cover_ladder")
    examined = cover.get("examined_cells", 0)
    cover_ids = {s.sid for s in by["dimension.build_cover_ladder"]}
    m["dimension.cover_s"] = cover_s
    m["dimension.cover.self_s"] = self_s(["dimension.build_cover_ladder"])
    m["dimension.cover.examined_cells"] = examined
    m["dimension.cover.cells_per_s"] = _ratio(examined, cover_s)
    m["dimension.cover.point_evals"] = sum(s.count for s in by["observables.fn"]
                                           if s.parent in cover_ids)
    m["dimension.cover.hit_ratio"] = _ratio(
        sum(e["card"] for e in cover.get("entries", [])), examined)
    lemma = data.get("lemma") or {}
    m["dimension.lemma_s"] = busy("dimension.verify_ball_lemma")
    m["dimension.lemma.acceptance"] = _ratio(lemma.get("pairs_checked", 0),
                                             lemma.get("candidates_drawn", 0))

    flow = data.get("flow") or {}
    suite_s = timings.get("flow", 0.0)
    m["flows.suite_s"] = suite_s
    m["flows.time_average.calls"] = len(by["flows.flow_time_average"])
    m["flows.time_average_s"] = busy("flows.flow_time_average")
    m["flows.step.calls"] = len(by["flows.flow_step"])
    m["flows.lipschitz_s"] = busy("flows.estimate_time1_lipschitz")
    m["flows.states_per_s"] = _ratio(flow.get("samples", 0), suite_s)
    m["flows.self_s"] = self_s([n for n in by if n.startswith("flows.")])
    return m
