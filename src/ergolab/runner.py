"""Experiment configuration, the staged pipeline, and report assembly.

A single INI config drives the whole chain:

    deviation ladders -> rate fits -> dimension bound d0 -> cover ladder
    -> box dimension & d'-volume series -> verdict
    (+ optional ball-lemma and suspension-flow suites)

Reports are deterministic functions of (config, seed): every stochastic
stage draws from counter-based streams and every reduction is either
integer-valued or runs in a fixed order, so rerunning with a different
thread count reproduces the report byte for byte.  Wall-clock timings are
the one exception and live in their own report section, which consumers
are expected to drop before comparing.
"""

from __future__ import annotations

import configparser
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .deviation import (build_deviation_ladders, fit_rate_function, ladder_rows,
                        ladder_table, write_csv)
from .dimension import (build_cover_ladder, cover_section, cover_table,
                        dimension_upper_bound, dprime_volume_series,
                        try_box_dimension, verify_ball_lemma)
from .errors import ParameterError, RateNotEstablishedError, StageError, ValidationError
from .flows import (ROOFS, SuspensionFlow, estimate_time1_lipschitz, fiber_constant,
                    flow_nontypical_inclusion_check, integer_part_reduction_check,
                    sample_flow_batch,
                    sample_flow_states)  # noqa: F401  a runner attribute perfbench/spans.py patches
from .observables import OBSERVABLES, get_observable, modulus_delta_for, srb_space_average
from .rng import check_seed
from .systems import SYSTEMS, check_ensemble_horizon, check_float64_horizon, get_system

VERDICT_HOLDS = "bound-holds"
VERDICT_VIOLATED = "bound-violated"
VERDICT_INCONCLUSIVE = "inconclusive"

STAGES = ("resolve", "space_average", "ladders", "fits", "cover", "dimension",
          "lemma", "flow")


@dataclass
class ExperimentConfig:
    """Flat experiment description; see configs/ for the INI shape.

    A catalog parameter p is read from the field system_p of a system and
    bump_p of an observable; the ids default to the first catalog entries.
    """

    system_id: str = next(iter(SYSTEMS))
    system_c: float | None = None
    observable_id: str = next(iter(OBSERVABLES))
    bump_a: float | None = None
    bump_w: float | None = None

    alphas: tuple = (0.6,)
    n_min: int = 20
    n_max: int = 60                          # past cat's ensemble budget (54): cat configs set it
    n_stride: int = 4
    sample_count: int = 200_000
    seed: int = 42

    space_samples: int = 1_000_000
    orbit_length: int = 10_000_000
    transient: int = 10_000

    cover_n_min: int = 0                     # cover runs when cover_n_max >= cover_n_min >= 1
    cover_n_max: int = 0
    grid_budget: int = 10**8
    dprime_offsets: tuple = (0.05, 0.1, 0.2)
    verdict_slack: float = 0.05
    delta_override: float = 0.0              # 0 -> from the observable's modulus

    lemma_n: int = 10
    lemma_pairs: int = 0                     # 0 -> skip the lemma suite

    flow_enabled: bool = False
    roof_kind: str = "constant"
    roof_param: float = 1.0
    flow_T: float = 50.0
    flow_samples: int = 1000
    quadrature_step: float = 0.0             # 0 -> rho_min / 8

    out_dir: str = ""


def validate_config(cfg: ExperimentConfig):
    """Raise ValidationError naming the first offending field."""
    def fail(name, msg):
        raise ValidationError(f"{name}: {msg}")

    def at_least(*bounds):
        for name, least in bounds:
            if getattr(cfg, name) < least:
                fail(name, f"must be >= {least:g}")

    def within(name, check, *args):
        try:
            check(*args)
        except ValueError as e:
            fail(name, e)

    for f in fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        for x in (v if isinstance(v, (tuple, list)) else (v,)):
            if isinstance(x, float) and not math.isfinite(x):
                fail(f.name, f"{x} is not finite")
    sys, _ = _resolve(cfg)
    if not cfg.alphas:
        fail("alphas", "need at least one threshold")
    if min(cfg.alphas) <= 0.0:
        fail("alphas", f"every threshold must be > 0, got {min(cfg.alphas):g}")
    at_least(("n_min", 1))
    if cfg.n_max < cfg.n_min:
        fail("n_max", f"must be >= n_min={cfg.n_min}")
    within("n_max", check_ensemble_horizon, sys, cfg.n_max)
    at_least(("n_stride", 1), ("sample_count", 1000), ("space_samples", 2),
             ("orbit_length", 100), ("transient", 0))
    within("seed", check_seed, cfg.seed)
    if cfg.cover_n_max >= cfg.cover_n_min and cfg.cover_n_min >= 1:
        at_least(("grid_budget", 1))
        within("cover_n_max", check_float64_horizon, sys, cfg.cover_n_max)
    at_least(("verdict_slack", 0.0), ("delta_override", 0.0), ("lemma_pairs", 0))
    if cfg.lemma_pairs > 0:
        at_least(("lemma_n", 1))
        within("lemma_n", check_float64_horizon, sys, cfg.lemma_n)
    if cfg.flow_enabled:
        if cfg.roof_kind not in ROOFS:
            fail("roof_kind", f"unknown roof {cfg.roof_kind!r}")
        within("roof_param", ROOFS[cfg.roof_kind], cfg.roof_param)
        if cfg.flow_T <= 0.0:
            fail("flow_T", "must be > 0")
        at_least(("flow_samples", 1), ("quadrature_step", 0.0))


# ---------------------------------------------------------------------------
# INI round-trip

_SECTIONS = {
    "system": ("system_id", "system_c"),
    "observable": ("observable_id", "bump_a", "bump_w"),
    "deviation": ("alphas", "n_min", "n_max", "n_stride", "sample_count", "seed"),
    "space_average": ("space_samples", "orbit_length", "transient"),
    "dimension": ("cover_n_min", "cover_n_max", "grid_budget", "dprime_offsets",
                  "verdict_slack", "delta_override"),
    "lemma": ("lemma_n", "lemma_pairs"),
    "flow": ("flow_enabled", "roof_kind", "roof_param", "flow_T", "flow_samples",
             "quadrature_step"),
    "output": ("out_dir",),
}

def _format_value(v):
    if isinstance(v, tuple):
        return ", ".join(repr(float(x)) for x in v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _float_list(raw):
    return tuple(float(tok) for tok in raw.split(",")) if raw else ()


def _optional_float(raw):
    return None if raw.lower() in ("", "none") else float(raw)


def _boolean(raw):
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


def _parse_value(name, raw):
    """Convert one INI value to its field's type; ValidationError names the field."""
    raw = raw.strip()
    default = getattr(ExperimentConfig(), name)
    if name in ("alphas", "dprime_offsets"):
        kind, convert = "a comma-separated list of numbers", _float_list
    elif default is None:
        kind, convert = "a number or none", _optional_float
    elif name == "flow_enabled":
        kind, convert = "a boolean", _boolean
    elif isinstance(default, int):
        kind, convert = "an integer", int
    elif isinstance(default, float):
        kind, convert = "a number", float
    else:
        return raw
    try:
        return convert(raw)
    except (KeyError, ValueError):
        raise ValidationError(f"{name}: cannot parse {raw!r} as {kind}") from None


def config_to_ini(cfg: ExperimentConfig) -> str:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    for section, names in _SECTIONS.items():
        cp[section] = {}
        for name in names:
            v = getattr(cfg, name)
            if v is None:
                continue
            cp[section][name] = _format_value(v)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def config_from_ini(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ValidationError(f"config: INI parse error: {e}") from None
    known = {name: section for section, names in _SECTIONS.items() for name in names}
    kwargs = {}
    for section in cp.sections():
        for name, raw in cp[section].items():
            if name not in known:
                raise ValidationError(f"{name}: unknown config field (section [{section}])")
            if known[name] != section:
                raise ValidationError(f"{name}: belongs in section [{known[name]}], found in [{section}]")
            kwargs[name] = _parse_value(name, raw)
    cfg = ExperimentConfig(**kwargs)
    validate_config(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as e:
        raise ValidationError(f"config: cannot read {path}: {e}") from None
    return config_from_ini(text)


# ---------------------------------------------------------------------------
# pipeline

@dataclass
class Report:
    """Deterministic payload plus wall-clock timings kept apart."""

    data: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)


def report_json(report: Report, include_timings: bool = True) -> str:
    obj = dict(report.data)
    if include_timings:
        obj["timings"] = report.timings
    return json.dumps(obj, sort_keys=True, indent=2)


def _resolve(cfg: ExperimentConfig):
    """The configured system and observable, built from the catalog.

    A ParameterError becomes a ValidationError naming the id field, or the
    field of the offending parameter.
    """
    def build(get, id_field, prefix, *args):
        params = {f.name[len(prefix):]: getattr(cfg, f.name) for f in fields(cfg)
                  if f.name.startswith(prefix) and f.name != id_field}
        try:
            return get(getattr(cfg, id_field), *args, **params)
        except ParameterError as e:
            field = id_field if e.param is None else prefix + e.param
            raise ValidationError(f"{field}: {e}") from None

    sys = build(get_system, "system_id", "system_")
    return sys, build(get_observable, "observable_id", "bump_", sys)


def _n_values(cfg: ExperimentConfig):
    return list(range(cfg.n_min, cfg.n_max + 1, cfg.n_stride))


def run_pipeline(cfg: ExperimentConfig, threads: int = 1, stages=None) -> Report:
    """Run the requested stages and assemble a report.

    `threads` runs the walked cover levels' point chunks on a pool of that
    many threads (the ladders, closed-form covers, lemma and flows run on
    the calling thread); it never changes the report.

    A stage failure raises StageError with the partial report attached as
    `.partial_report` (its data records the failed stage), so callers can
    flush what was computed.
    """
    validate_config(cfg)
    wanted = set(STAGES if stages is None else stages)
    report = Report()
    report.data["failed_stage"] = None
    ctx = {}
    alpha = cfg.alphas[0]                    # the threshold of covers, lemma, flow, verdict

    def run_stage(name, fn):
        if name not in wanted:
            return
        t0 = time.perf_counter()
        try:
            fn()
        except Exception as e:
            report.data["failed_stage"] = name
            err = StageError(name, e)
            err.partial_report = report
            raise err from e
        report.timings[name] = time.perf_counter() - t0

    def st_resolve():
        sys, obs = _resolve(cfg)
        ctx["sys"], ctx["obs"] = sys, obs
        ctx["delta"] = cfg.delta_override or modulus_delta_for(sys, obs, max(alpha, 1e-12))
        report.data["config"] = {k: list(v) if isinstance(v, tuple) else v
                                 for k, v in asdict(cfg).items()}
        report.data["system"] = {"id": sys.sid, "d": sys.d, "domain": sys.domain,
                                 "lip": sys.lip, "L": sys.L,
                                 "params": dict(sys.params)}
        report.data["observable"] = {"id": obs.oid, "lip": obs.lip,
                                     "sup_abs": obs.sup_abs, "params": dict(obs.params)}

    def st_space_average():
        sys, obs = ctx["sys"], ctx["obs"]
        sa = srb_space_average(sys, obs, cfg.seed, samples=cfg.space_samples,
                               orbit_length=cfg.orbit_length, transient=cfg.transient)
        ctx["phibar"] = sa.value
        report.data["space_average"] = {
            "value": sa.value, "std_error": sa.std_error, "method": sa.method,
            "sample_count": sa.sample_count, "orbit_length": sa.orbit_length,
            "transient": sa.transient, "seed_point": sa.seed_point}

    def st_ladders():
        sys, obs = ctx["sys"], ctx["obs"]
        alpha_set = []
        for a in list(cfg.alphas) + [a / 2.0 for a in cfg.alphas]:
            if a not in alpha_set:
                alpha_set.append(a)
        ladders = build_deviation_ladders(sys, obs, ctx["phibar"], alpha_set,
                                          _n_values(cfg), cfg.sample_count, cfg.seed)
        ctx["ladders"] = ladders
        report.data["ladders"] = {repr(a): {"entries": ladder_rows(lad)}
                                  for a, lad in ladders.items()}

    def st_fits():
        fits = {}
        for a, lad in ctx["ladders"].items():
            try:
                fits[a] = fit_rate_function(lad)
                report.data["ladders"][repr(a)]["fit"] = fits[a]._asdict()
            except ValueError as e:
                fits[a] = None
                report.data["ladders"][repr(a)]["fit"] = {"error": str(e)}
        # d0 from the fitted rate at alpha/2; needed before the cover stage
        # so the d'-volume columns can be pinned to d0 + offsets
        fit_half = fits.get(alpha / 2.0)
        fit_full = fits.get(alpha)
        d0 = None
        reason = None
        if fit_half is None:
            reason = "no usable rate fit at alpha/2"
        else:
            try:
                d0 = dimension_upper_bound(ctx["sys"].d, ctx["sys"].L, fit_half.h)
            except RateNotEstablishedError as e:
                reason = str(e)
        ctx["d0"] = d0
        ctx["d0_reason"] = reason
        ctx["h_half"] = fit_half.h if fit_half is not None else None
        ctx["h_alpha"] = fit_full.h if fit_full is not None else None

    def st_cover():
        sys, obs = ctx["sys"], ctx["obs"]
        if not (cfg.cover_n_min >= 1 and cfg.cover_n_max >= cfg.cover_n_min):
            ctx["cover"] = None
            report.data["cover"] = None
            return
        d0 = ctx.get("d0")
        dprimes = tuple(d0 + off for off in cfg.dprime_offsets) if d0 is not None else ()
        ladder = build_cover_ladder(sys, obs, ctx["phibar"], alpha, ctx["delta"],
                                    cfg.cover_n_min, cfg.cover_n_max,
                                    budget=cfg.grid_budget, dprimes=dprimes,
                                    threads=threads)
        ctx["cover"] = ladder
        report.data["cover"] = cover_section(ladder)

    def st_dimension():
        sys, obs = ctx["sys"], ctx["obs"]
        d0 = ctx.get("d0")
        cover = ctx.get("cover")
        box = try_box_dimension(cover) if cover is not None else None
        series = []
        if cover is not None and cover.dprimes:
            series = [dprime_volume_series(cover, dp) for dp in cover.dprimes]
        if alpha > 2.0 * obs.sup_abs:
            verdict = VERDICT_INCONCLUSIVE
            reason = "deviation set is empty at this threshold"
        elif d0 is None:
            verdict = VERDICT_INCONCLUSIVE
            reason = ctx.get("d0_reason") or "no dimension bound available"
        elif box is None:
            verdict = VERDICT_INCONCLUSIVE
            reason = "cover ladder cannot support a box-dimension fit"
        elif box.upper <= d0 + cfg.verdict_slack:
            verdict, reason = VERDICT_HOLDS, None
        elif box.lower > d0 + cfg.verdict_slack:
            verdict, reason = VERDICT_VIOLATED, None
        else:
            verdict = VERDICT_INCONCLUSIVE
            reason = "box-dimension band straddles the bound"
        report.data["dimension"] = {
            "d": sys.d, "L": sys.L, "alpha": alpha,
            "h_half": ctx.get("h_half"), "h_alpha": ctx.get("h_alpha"),
            "d0": d0,
            "box": None if box is None else {"value": box.value, "lower": box.lower,
                                             "upper": box.upper},
            "dprime_series": [{"dprime": s.dprime, "partial_sum": s.partial_sum,
                               "converges": s.converges} for s in series],
            "verdict": verdict, "verdict_reason": reason,
            "slack": cfg.verdict_slack}
        report.data["verdict"] = verdict

    def st_lemma():
        sys, obs = ctx["sys"], ctx["obs"]
        if cfg.lemma_pairs < 1:
            report.data["lemma"] = None
            return
        rep = verify_ball_lemma(sys, obs, ctx["phibar"], alpha, ctx["delta"],
                                cfg.lemma_n, cfg.lemma_pairs, cfg.seed)
        report.data["lemma"] = rep._asdict()
        if not math.isfinite(rep.worst_margin):
            report.data["lemma"]["worst_margin"] = None

    def st_flow():
        sys, obs = ctx["sys"], ctx["obs"]
        if not cfg.flow_enabled:
            report.data["flow"] = None
            return
        roof = ROOFS[cfg.roof_kind](cfg.roof_param)
        flow = SuspensionFlow(sys, roof)
        fobs = fiber_constant(obs)
        qstep = cfg.quadrature_step or None
        phibar = ctx["phibar"]
        states, extra = sample_flow_batch(flow, cfg.seed, 0, cfg.flow_samples)
        # per-state fractional horizons in [2, flow_T] for the integer check
        Ti = 2.0 + (cfg.flow_T - 2.0) * extra if cfg.flow_T > 2.0 else 2.0
        chk = integer_part_reduction_check(flow, fobs, states, Ti, qstep)
        t_min_incl = 4.0 * fobs.sup_abs / alpha
        inclusion = None
        if cfg.flow_T >= t_min_incl:
            inc = flow_nontypical_inclusion_check(flow, fobs, phibar, alpha,
                                                  states, cfg.flow_T, qstep)
            inclusion = {"ok": int(inc.ok.sum()), "count": cfg.flow_samples,
                         "vacuous": int(inc.vacuous.sum())}
        lip1 = estimate_time1_lipschitz(flow, min(2000, 2 * cfg.flow_samples), cfg.seed)
        report.data["flow"] = {
            "roof": {"kind": roof.kind, "params": dict(roof.params),
                     "rho_min": roof.rho_min, "rho_max": roof.rho_max},
            "T": cfg.flow_T, "samples": cfg.flow_samples,
            "integer_part": {"ok": int(chk.ok.sum()), "count": cfg.flow_samples,
                             "worst_excess": float((chk.lhs - chk.bound).max())},
            "inclusion": inclusion,
            "time1_lipschitz": lip1}

    run_stage("resolve", st_resolve)
    run_stage("space_average", st_space_average)
    run_stage("ladders", st_ladders)
    run_stage("fits", st_fits)
    run_stage("cover", st_cover)
    run_stage("dimension", st_dimension)
    run_stage("lemma", st_lemma)
    run_stage("flow", st_flow)
    return report


def write_artifacts(report: Report, out_dir, fmt: str = "json"):
    """Write report.json (always) and, for fmt='csv', the tabular artifacts."""
    import os
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    rpath = os.path.join(out_dir, "report.json")
    with open(rpath, "w") as fh:
        fh.write(report_json(report))
        fh.write("\n")
    paths.append(rpath)
    if fmt != "csv":
        return paths
    for key, lad in (report.data.get("ladders") or {}).items():
        paths.append(os.path.join(out_dir, f"ladder_alpha_{key}.csv"))
        write_csv(paths[-1], *ladder_table(lad["entries"]))
    cov = report.data.get("cover")
    if cov:
        paths.append(os.path.join(out_dir, "cover.csv"))
        write_csv(paths[-1], *cover_table(cov))
    return paths
