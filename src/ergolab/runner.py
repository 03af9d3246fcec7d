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
import numbers
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields

from .deviation import (_MIN_SAMPLES, build_deviation_ladders, fit_rate_function, ladder_rows,
                        ladder_table, write_csv)
from .dimension import (bound_verdict, build_cover_ladder, cover_section, cover_table,
                        dprime_volume_series, rate_bound, try_box_dimension, verify_ball_lemma)
from .errors import ParameterError, StageError, ValidationError, check_integer, check_real
from .flows import (INTEGER_PART_MIN_T, ROOFS, SuspensionFlow, bridge_checks,
                    estimate_time1_lipschitz, fiber_constant, inclusion_min_T,
                    sample_flow_batch)
from .flows import (flow_nontypical_inclusion_check, integer_part_reduction_check,  # noqa: F401
                    sample_flow_states)  # runner attributes perfbench/spans.py patches
from .observables import _ORBITS, OBSERVABLES, get_observable, modulus_delta_for, srb_space_average
from .rng import check_seed
from .systems import SYSTEMS, check_ensemble_horizon, check_float64_horizon, get_system

STAGES = ("resolve", "space_average", "ladders", "fits", "cover", "dimension",
          "lemma", "flow")


def _field(section, default, lo=-math.inf, ends="()"):
    return field(default=default, metadata={"section": section, "lo": lo, "ends": ends})


@dataclass
class ExperimentConfig:
    """Flat experiment description; see configs/ for the INI shape.

    Each field is declared once, here: its INI section, its type and the
    interval from lo to +inf, with brackets `ends` as in errors.check_real,
    that its value (each entry of a tuple) must lie in.  The open infinite
    ends of the default make a float finite; an int field's interval is
    [lo, inf).  The INI reader and writer, validate_config and the pipeline
    read that declaration.  An int field takes integers but no bool, a float
    field any real number but a bool, and the pipeline runs on each value as
    its declared type, so equal configs give equal reports.
    A catalog parameter p is read from the field system_p of a system and
    bump_p of an observable; the ids default to the first catalog entries.
    """

    system_id: str = _field("system", next(iter(SYSTEMS)))
    system_c: float | None = _field("system", None)
    observable_id: str = _field("observable", next(iter(OBSERVABLES)))
    bump_a: float | None = _field("observable", None)
    bump_w: float | None = _field("observable", None)

    alphas: tuple[float, ...] = _field("deviation", (0.6,), 0.0)
    n_min: int = _field("deviation", 20, 1, "[)")
    n_max: int = _field("deviation", 60)     # past cat's ensemble budget (54): cat configs set it
    n_stride: int = _field("deviation", 4, 1, "[)")
    sample_count: int = _field("deviation", 200_000, _MIN_SAMPLES, "[)")
    seed: int = _field("deviation", 42, 0, "[)")

    space_samples: int = _field("space_average", 1_000_000, 2, "[)")
    orbit_length: int = _field("space_average", 10_000_000, _ORBITS, "[)")
    transient: int = _field("space_average", 10_000, 0, "[)")

    cover_n_min: int = _field("dimension", 0)  # cover runs when cover_n_max >= cover_n_min >= 1
    cover_n_max: int = _field("dimension", 0)
    grid_budget: int = _field("dimension", 10**8, 1, "[)")
    dprime_offsets: tuple[float, ...] = _field("dimension", (0.05, 0.1, 0.2))
    verdict_slack: float = _field("dimension", 0.05, 0.0, "[)")
    delta_override: float = _field("dimension", 0.0, 0.0, "[)")  # 0 -> from the observable's modulus

    lemma_n: int = _field("lemma", 10, 1, "[)")
    lemma_pairs: int = _field("lemma", 0, 0, "[)")  # 0 -> skip the lemma suite

    flow_enabled: bool = _field("flow", False)
    roof_kind: str = _field("flow", "constant")
    roof_param: float = _field("flow", 1.0)
    flow_T: float = _field("flow", 50.0, 0.0)
    flow_samples: int = _field("flow", 1000, 1, "[)")
    quadrature_step: float = _field("flow", 0.0, 0.0, "[)")  # 0 -> rho_min / 8

    out_dir: str = _field("output", "")


def _scalar(t, cast):
    """value -> cast(value); TypeError unless the value is a t (a bool is only a bool)."""
    def plain(v):
        if not isinstance(v, t) or (isinstance(v, bool) and t is not bool):
            raise TypeError
        return cast(v)
    return plain


_real = _scalar(numbers.Real, float)
# each declared type: what its INI value must spell, the INI parser, and its `plain`
_KINDS = {
    "str": ("a string", str, _scalar(str, str)),
    "bool": ("a boolean", lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()],
             _scalar(bool, bool)),
    "int": ("an integer", int, _scalar(numbers.Integral, int)),
    "float": ("a number", float, _real),
    "float | None": ("a number or none",
                     lambda raw: None if raw.lower() in ("", "none") else float(raw),
                     lambda v: None if v is None else _real(v)),
    "tuple[float, ...]": ("a comma-separated list of numbers",
                          lambda raw: tuple(float(tok) for tok in raw.split(",")) if raw else (),
                          _scalar(tuple, lambda v: tuple(map(_real, v)))),
}
# a field's declaration; plain: value -> the value as `type`, its annotation (TypeError if
# it is not one)
_Declared = namedtuple("_Declared", "section lo ends type noun parse plain")
_DECLARED = {f.name: _Declared(f.metadata["section"], f.metadata["lo"], f.metadata["ends"], f.type,
                               *_KINDS[f.type])
             for f in fields(ExperimentConfig)}


def _as_declared(cfg: ExperimentConfig) -> dict:
    """Each field's value as its declared type; ValidationError names a field of another."""
    out = {}
    for name, decl in _DECLARED.items():
        v = getattr(cfg, name)
        try:
            out[name] = decl.plain(v)
        except TypeError:
            raise ValidationError(f"{name}: must be {decl.type}, got {v!r}") from None
    return out


def validate_config(cfg: ExperimentConfig):
    """Raise ValidationError naming the first offending field."""
    def fail(name, msg):
        raise ValidationError(f"{name}: {msg}")

    def within(name, check, *args):
        try:
            check(*args)
        except ValueError as e:
            fail(name, e)

    for name, v in _as_declared(cfg).items():
        decl = _DECLARED[name]
        for x in (v if isinstance(v, tuple) else (v,)):
            if decl.type == "int":
                within(name, check_integer, name, x, decl.lo)
            elif isinstance(x, float):
                within(name, check_real, name, x, decl.lo, math.inf, decl.ends)
    sys, _ = _resolve(cfg)
    if not cfg.alphas:
        fail("alphas", "need at least one threshold")
    if cfg.n_max < cfg.n_min:
        fail("n_max", f"must be >= n_min={cfg.n_min}")
    within("n_max", check_ensemble_horizon, sys, cfg.n_max)
    within("seed", check_seed, cfg.seed)
    if cfg.cover_n_max >= cfg.cover_n_min and cfg.cover_n_min >= 1:
        within("cover_n_max", check_float64_horizon, sys, cfg.cover_n_max)
    if cfg.lemma_pairs > 0:
        within("lemma_n", check_float64_horizon, sys, cfg.lemma_n)
    if cfg.flow_enabled:
        if cfg.roof_kind not in ROOFS:
            fail("roof_kind", f"unknown roof {cfg.roof_kind!r}")
        within("roof_param", ROOFS[cfg.roof_kind], cfg.roof_param)


# ---------------------------------------------------------------------------
# INI round-trip

def _format_value(v):
    if isinstance(v, tuple):
        return ", ".join(map(repr, v))
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def config_to_ini(cfg: ExperimentConfig) -> str:
    sections = {}
    for name, v in _as_declared(cfg).items():
        section = sections.setdefault(_DECLARED[name].section, {})
        if v is not None:
            section[name] = _format_value(v)
    cp = configparser.ConfigParser(interpolation=None)  # '%' is a plain character
    cp.optionxform = str
    cp.read_dict(sections)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def config_from_ini(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None)  # '%' is a plain character
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ValidationError(f"config: INI parse error: {e}") from None
    kwargs = {}
    for section in (cp.default_section, *cp.sections()):    # a [DEFAULT] key is misplaced
        for name, raw in cp[section].items():
            if name not in _DECLARED:
                raise ValidationError(f"{name}: unknown config field (section [{section}])")
            decl = _DECLARED[name]
            if decl.section != section:
                raise ValidationError(f"{name}: belongs in section [{decl.section}], found in [{section}]")
            raw = raw.strip()
            try:
                kwargs[name] = decl.parse(raw)
            except (KeyError, ValueError):
                raise ValidationError(f"{name}: cannot parse {raw!r} as {decl.noun}") from None
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


def run_pipeline(cfg: ExperimentConfig, threads: int = 1, stages=None) -> Report:
    """Run the requested stages and assemble a report.

    `threads` (an integer >= 1, ValueError naming it) runs the pieces of a
    Lebesgue space average, the sample chunks of the ladders and the bands
    of walked cover levels on that many threads of the package's one pool
    (systems.chunk_map); the empirical-orbit space average, the
    closed-form covers, the lemma and the flows run on the calling thread.
    It never changes the report.

    `stages` is a collection of names from STAGES, run in STAGES order (None
    runs them all); a string or an unknown name raises ValueError naming
    stages before any stage runs.

    A stage failure raises StageError with the partial report attached as
    `.partial_report` (its data records the failed stage), so callers can
    flush what was computed.
    """
    cfg = ExperimentConfig(**_as_declared(cfg))  # equal configs run alike
    validate_config(cfg)
    check_integer("threads", threads, 1)
    if isinstance(stages, str):
        raise ValueError(f"stages must be a collection of stage names, not the string {stages!r}")
    wanted = set(STAGES if stages is None else stages)
    unknown = sorted(map(repr, wanted - set(STAGES)))
    if unknown:
        raise ValueError(f"stages must be names from {STAGES}, got {', '.join(unknown)}")
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
        ctx["delta"] = cfg.delta_override or modulus_delta_for(sys, obs, alpha)
        ctx["bound"] = rate_bound(sys, {}, alpha)    # no d0 until the fits stage runs
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
                               orbit_length=cfg.orbit_length, transient=cfg.transient,
                               threads=threads)
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
        n_values = list(range(cfg.n_min, cfg.n_max + 1, cfg.n_stride))
        ladders = build_deviation_ladders(sys, obs, ctx["phibar"], alpha_set, n_values,
                                          cfg.sample_count, cfg.seed, threads=threads)
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
                report.data["ladders"][repr(a)]["fit"] = {"error": str(e)}
        # here, not in the dimension stage: the cover pins its d'-volumes to d0 + offsets
        ctx["bound"] = rate_bound(ctx["sys"], fits, alpha)

    def st_cover():
        sys, obs = ctx["sys"], ctx["obs"]
        if not (cfg.cover_n_min >= 1 and cfg.cover_n_max >= cfg.cover_n_min):
            ctx["cover"] = None
            report.data["cover"] = None
            return
        d0 = ctx["bound"].d0
        dprimes = tuple(d0 + off for off in cfg.dprime_offsets) if d0 is not None else ()
        ladder = build_cover_ladder(sys, obs, ctx["phibar"], alpha, ctx["delta"],
                                    cfg.cover_n_min, cfg.cover_n_max,
                                    budget=cfg.grid_budget, dprimes=dprimes,
                                    threads=threads)
        ctx["cover"] = ladder
        report.data["cover"] = cover_section(ladder)

    def st_dimension():
        sys, obs = ctx["sys"], ctx["obs"]
        bound = ctx["bound"]
        cover = ctx.get("cover")
        box = try_box_dimension(cover) if cover is not None else None
        series = [] if cover is None else [dprime_volume_series(cover, dp) for dp in cover.dprimes]
        verdict, reason = bound_verdict(obs, ctx["phibar"], bound, box, cfg.verdict_slack)
        report.data["dimension"] = {
            "d": sys.d, "L": sys.L, "alpha": alpha,
            "h_half": bound.h_half, "h_alpha": bound.h_alpha, "d0": bound.d0,
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
        # per-state fractional horizons in [INTEGER_PART_MIN_T, flow_T] for the integer check
        t_min = INTEGER_PART_MIN_T
        Ti = t_min + (cfg.flow_T - t_min) * extra if cfg.flow_T > t_min else t_min
        # both checks from one walk; no inclusion below its least horizon
        T = cfg.flow_T if cfg.flow_T >= inclusion_min_T(fobs, alpha) else None
        chk, inc = bridge_checks(flow, fobs, states, integer_T=Ti, phibar=phibar,
                                 alpha=alpha, inclusion_T=T, quadrature_step=qstep)
        inclusion = None
        if inc is not None:
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
    """Write report.json (always) and, for fmt='csv', the tabular artifacts.

    fmt must be "json" or "csv" (ValueError naming it, before anything is
    written)."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"fmt must be 'json' or 'csv', got {fmt!r}")
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
