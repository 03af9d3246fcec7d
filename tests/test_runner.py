"""Experiment configs, the staged pipeline, artifacts, and the CLI."""

import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest

import ergolab as E
from ergolab.cli import _STAGES_FOR, main
from ergolab import dimension, runner
from ergolab.errors import StageError, ValidationError
from ergolab.runner import STAGES


def mini_cfg(**over):
    base = dict(alphas=(0.6,), n_min=12, n_max=32, n_stride=4,
                sample_count=20000, seed=42, space_samples=20000,
                lemma_pairs=0, flow_enabled=False)
    base.update(over)
    return E.ExperimentConfig(**base)


def write_cfg(tmp_path, cfg, name="exp.ini"):
    path = tmp_path / name
    path.write_text(E.config_to_ini(cfg))
    return str(path)


def test_config_ini_round_trip():
    cfg = mini_cfg(alphas=(0.6, 0.3), verdict_slack=0.07, cover_n_min=3,
                   cover_n_max=7, flow_enabled=True, roof_kind="cosine",
                   roof_param=0.25, flow_T=12.5, out_dir="runs/a")
    back = E.config_from_ini(E.config_to_ini(cfg))
    assert back == cfg
    logi = mini_cfg(system_id="logistic", system_c=-1.75,
                    observable_id="bump", bump_a=0.1, bump_w=0.2)
    assert E.config_from_ini(E.config_to_ini(logi)) == logi
    # defaults survive an empty document
    assert E.config_from_ini("") == E.ExperimentConfig()


def test_shipped_configs_parse():
    cfg = E.load_config("configs/doubling.ini")
    assert cfg.system_id == "doubling" and cfg.alphas == (0.6,)
    assert (cfg.cover_n_min, cfg.cover_n_max) == (10, 24)
    assert cfg.lemma_pairs == 10000 and cfg.flow_enabled
    cat = E.load_config("configs/cat.ini")
    assert cat.system_id == "cat" and cat.alphas == (0.4,)


@pytest.mark.parametrize("field,over", [
    ("system_id", dict(system_id="henon")),
    ("system_c", dict(system_id="logistic")),
    ("system_c", dict(system_id="logistic", system_c=0.5)),
    ("observable_id", dict(observable_id="spike")),
    ("bump_a", dict(observable_id="bump")),
    ("alphas", dict(alphas=())),
    ("n_max", dict(n_min=30, n_max=20)),
    ("n_stride", dict(n_stride=0)),
    ("sample_count", dict(sample_count=10)),
    ("seed", dict(seed=-1)),
    ("verdict_slack", dict(verdict_slack=-0.1)),
    ("lemma_pairs", dict(lemma_pairs=-5)),
    ("roof_param", dict(flow_enabled=True, roof_kind="cosine", roof_param=1.5)),
    ("flow_T", dict(flow_enabled=True, flow_T=0.0)),
    # every float field, tuple element and optional float must be finite
    ("alphas", dict(alphas=(0.6, float("nan")))),
    ("bump_a", dict(observable_id="bump", bump_a=float("nan"), bump_w=0.1)),
    ("dprime_offsets", dict(dprime_offsets=(0.05, float("nan")))),
    ("verdict_slack", dict(verdict_slack=float("nan"))),
    ("roof_param", dict(flow_enabled=True, roof_param=float("nan"))),
    ("flow_T", dict(flow_enabled=True, flow_T=float("inf"))),
    # 128-bit dyadic ensembles are exact up to horizon 76
    ("n_max", dict(n_max=77)),
    ("n_max", dict(system_id="tent", n_max=200)),
    # float64 orbits are faithful while n log2 L <= 45, for covers and lemma
    ("cover_n_max", dict(cover_n_min=10, cover_n_max=46)),
    ("cover_n_max", dict(system_id="cat", cover_n_min=1, cover_n_max=33)),
    ("lemma_n", dict(lemma_pairs=10, lemma_n=46)),
    ("lemma_n", dict(system_id="logistic", system_c=-2.0, lemma_pairs=10, lemma_n=23)),
    # 128-bit cat ensembles are faithful up to horizon 54
    ("n_max", dict(system_id="cat", n_min=12, n_max=55)),
    # Philox keys on one 64-bit word: a seed past it would alias one inside
    ("seed", dict(seed=2**64 + 42)),
    # the paper's alpha is positive: 0 would divide the flow's 4 sup / alpha
    ("alphas", dict(alphas=(0.0,))),
    ("alphas", dict(alphas=(0.6, -0.1))),
    ("alphas", dict(alphas=(-0.0,))),
    # a config built in Python has its fields' declared types: an int field
    # takes no float or bool, a float field no bool, a tuple field no scalar
    ("n_max", dict(n_max=32.5)),
    ("sample_count", dict(sample_count=20000.0)),
    ("space_samples", dict(space_samples=20000.0)),
    ("seed", dict(seed=True)),
    ("alphas", dict(alphas=0.6)),
    ("alphas", dict(alphas=[0.6])),
    ("alphas", dict(alphas=(0.6, True))),
    ("flow_enabled", dict(flow_enabled=1)),
    ("lemma_pairs", dict(lemma_pairs=10.0)),
    ("cover_n_max", dict(cover_n_min=1, cover_n_max=3.0)),
    ("system_c", dict(system_id="logistic", system_c="-2")),
    ("roof_kind", dict(roof_kind=None)),
    # least values hold whether or not their suite runs
    ("grid_budget", dict(grid_budget=0)),
    ("lemma_n", dict(lemma_n=0)),
    ("flow_samples", dict(flow_samples=0)),
    ("quadrature_step", dict(quadrature_step=-0.5)),
])
def test_validation_names_the_offending_field(field, over):
    with pytest.raises(ValidationError) as err:
        E.validate_config(mini_cfg(**over))
    assert str(err.value).split(":")[0] == field


def outside_values(f):
    """NaN, +-inf for a float field, and the first value outside a finite lower end."""
    lo, ends = f.metadata["lo"], f.metadata["ends"]
    out = [math.nan] + ([] if f.type == "int" else [math.inf, -math.inf])
    if math.isfinite(lo):
        if ends[0] == "(":
            out.append(lo)
        else:
            out.append(lo - 1 if f.type == "int" else math.nextafter(lo, -math.inf))
    return out


OUTSIDE = [(f.name, (v,) if f.type.startswith("tuple") else v)
           for f in dataclasses.fields(E.ExperimentConfig)
           if f.type in ("int", "float", "float | None", "tuple[float, ...]")
           for v in outside_values(f)]


@pytest.mark.parametrize("name,value", OUTSIDE, ids=[f"{n}={v}" for n, v in OUTSIDE])
def test_each_field_refuses_the_values_outside_its_interval(name, value):
    # the flow suite is off in mini_cfg: alphas and flow_T are checked whatever runs
    with pytest.raises(ValidationError) as err:
        E.validate_config(mini_cfg(**{name: value}))
    assert str(err.value).startswith(f"{name}: ")


def test_outside_values_cover_the_declared_ends():
    assert ("alphas", (0.0,)) in OUTSIDE and ("flow_T", 0.0) in OUTSIDE
    assert ("verdict_slack", -5e-324) in OUTSIDE and ("grid_budget", 0) in OUTSIDE
    assert ("roof_param", math.inf) in OUTSIDE and ("seed", -1) in OUTSIDE


@pytest.mark.parametrize("field,a,b", [("delta_override", 0, 0.0), ("alphas", (1,), (1.0,))])
def test_equal_configs_give_equal_reports(field, a, b):
    # the pipeline and the report's config section read each value as its
    # declared type, so an int given for a float field reads as that float
    stages = ("resolve", "space_average", "ladders")
    cfg_a, cfg_b = mini_cfg(**{field: a}), mini_cfg(**{field: b})
    assert cfg_a == cfg_b
    reports = [E.report_json(E.run_pipeline(c, stages=stages), include_timings=False)
               for c in (cfg_a, cfg_b)]
    assert reports[0] == reports[1]
    assert E.config_to_ini(cfg_a) == E.config_to_ini(cfg_b)


@pytest.mark.parametrize("word,value", [
    ("true", True), ("1", True), ("yes", True), ("on", True),
    ("false", False), ("0", False), ("no", False), ("off", False)])
def test_flow_enabled_spellings(word, value):
    # the eight spellings of a boolean, in any case and padded, parse to
    # their value; any other word is refused with the field named
    for text in (word, word.upper(), word.title(), f"  {word}  "):
        cfg = E.config_from_ini(f"[flow]\nflow_enabled = {text}\n")
        assert cfg.flow_enabled is value
    for bad in (word + "s", "t" + word, "2", "y", "none", ""):
        with pytest.raises(ValidationError, match=r"^flow_enabled: cannot parse .* as a boolean"):
            E.config_from_ini(f"[flow]\nflow_enabled = {bad}\n")


def test_ini_rejects_unknown_and_misplaced_fields():
    with pytest.raises(ValidationError, match="unknown config field"):
        E.config_from_ini("[system]\nwobble = 3\n")
    with pytest.raises(ValidationError, match="belongs in section"):
        E.config_from_ini("[system]\nsample_count = 5000\n")
    with pytest.raises(ValidationError, match="integer"):
        E.config_from_ini("[deviation]\nsample_count = many\n")
    with pytest.raises(ValidationError, match="boolean"):
        E.config_from_ini("[flow]\nflow_enabled = perhaps\n")
    for text in ("[deviation]\nalphas = 0.6, abc\n", "[system]\nsystem_c = abc\n",
                 "[dimension]\ndprime_offsets = x\n"):
        name = text.split("\n")[1].split(" =")[0]
        with pytest.raises(ValidationError, match=f"^{name}: cannot parse"):
            E.config_from_ini(text)
    with pytest.raises(ValidationError, match="INI parse error"):
        E.config_from_ini("no section header")


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nseed = 3\n",
    "[DEFAULT]\nseed = 3\n[deviation]\nn_min = 20\n",
    "[DEFAULT]\nseed = 3\n[deviation]\nn_min = 20\n[system]\nsystem_id = doubling\n",
])
def test_ini_refuses_default_section_keys(text):
    # a [DEFAULT] key would reach every section; it is refused by its name and section
    with pytest.raises(ValidationError,
                       match=r"^seed: belongs in section \[deviation\], found in \[DEFAULT\]"):
        E.config_from_ini(text)


def test_ini_round_trips_percent_signs():
    # '%' is a plain character, not an interpolation
    cfg = mini_cfg(out_dir="runs/100%")
    assert "out_dir = runs/100%\n" in E.config_to_ini(cfg)
    assert E.config_from_ini(E.config_to_ini(cfg)) == cfg


def test_pipeline_stage_gating():
    rep = E.run_pipeline(mini_cfg(), stages=("resolve", "space_average", "ladders"))
    assert rep.data["failed_stage"] is None
    assert set(rep.data["ladders"].keys()) == {"0.6", "0.3"}
    assert "fit" not in rep.data["ladders"]["0.6"]
    assert "dimension" not in rep.data
    assert rep.data["system"]["id"] == "doubling"
    entries = rep.data["ladders"]["0.6"]["entries"]
    assert [e["n"] for e in entries] == [12, 16, 20, 24, 28, 32]


def test_pipeline_full_verdict_on_mini_experiment():
    cfg = mini_cfg(cover_n_min=4, cover_n_max=11)
    rep = E.run_pipeline(cfg, threads=2)
    dim = rep.data["dimension"]
    assert dim["d0"] is not None and 0.0 < dim["d0"] < 1.0
    assert dim["box"] is not None
    assert rep.data["verdict"] == "bound-holds"
    assert dim["box"]["upper"] <= dim["d0"] + cfg.verdict_slack
    assert len(dim["dprime_series"]) == 3
    assert rep.data["cover"]["examined_cells"] > 0
    # the timing section exists but is no part of the deterministic payload
    assert set(rep.timings) <= set(STAGES)


def test_pipeline_is_thread_invariant(monkeypatch):
    cfg = mini_cfg(cover_n_min=4, cover_n_max=9, lemma_pairs=500,
                   flow_enabled=True, flow_T=8.0, flow_samples=20)
    a = E.run_pipeline(cfg, threads=1)
    b = E.run_pipeline(cfg, threads=4)
    assert E.report_json(a, include_timings=False) == \
        E.report_json(b, include_timings=False)
    assert json.loads(E.report_json(a))["timings"]
    # coord has no closed form, so its cover levels are walked; in chunks
    # of 64 points every level's batch spans several chunks on the pool
    monkeypatch.setattr(dimension, "_POINT_CHUNK", 64)
    cfg = mini_cfg(observable_id="coord", alphas=(0.15,), cover_n_min=4, cover_n_max=9)
    a = E.run_pipeline(cfg, threads=1)
    b = E.run_pipeline(cfg, threads=4)
    assert all(e["card"] > 0 for e in a.data["cover"]["entries"])
    assert E.report_json(a, include_timings=False) == \
        E.report_json(b, include_timings=False)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("flow_T", [50.0, 12.5, 3.0])   # integer, fractional, no inclusion
def test_flow_block_equals_the_separate_checks(flow_T, threads, monkeypatch):
    # the flow stage walks both bridge checks as rows of one walk: its block
    # equals what the public checks give called one by one on the same states
    from ergolab import flows
    walks = []
    walk = flows._walk
    monkeypatch.setattr(flows, "_walk", lambda *a, **k: walks.append(a[3]) or walk(*a, **k))
    # alpha 0.32 puts the inclusion's least horizon 4 sup|Phi| / alpha at 12.5
    cfg = mini_cfg(alphas=(0.32,), flow_enabled=True, roof_kind="cosine", roof_param=0.25,
                   flow_T=flow_T, flow_samples=24)
    rep = E.run_pipeline(cfg, threads=threads, stages=("resolve", "space_average", "flow"))
    # the checks, then the time-1 Lipschitz pairs; the checks' rows are the
    # horizons Ti, floor(Ti), flow_T and, where it is fractional, floor(flow_T)
    assert len(walks) == 2 and np.all(walks[1] == 1.0)
    assert walks[0].size == 24 * {50.0: 3, 12.5: 4, 3.0: 2}[flow_T]
    monkeypatch.undo()
    flow = E.SuspensionFlow(E.get_system("doubling"), E.cosine_roof(0.25))
    fobs = E.fiber_constant(E.get_observable("cos1", flow.base))
    states, extra = E.sample_flow_batch(flow, cfg.seed, 0, cfg.flow_samples)
    Ti = 2.0 + (flow_T - 2.0) * extra
    chk = E.integer_part_reduction_check(flow, fobs, states, Ti)
    inclusion = None
    if flow_T >= 12.5:
        inc = E.flow_nontypical_inclusion_check(flow, fobs, rep.data["space_average"]["value"],
                                                0.32, states, flow_T)
        inclusion = {"ok": int(inc.ok.sum()), "count": 24, "vacuous": int(inc.vacuous.sum())}
        # at 12.5 some states deviate, so their floor(T) rows are read
        assert flow_T == 50.0 or 0 < inclusion["vacuous"] < 24
    assert rep.data["flow"] == {
        "roof": {"kind": "cosine", "params": {"a": 0.25}, "rho_min": 0.75, "rho_max": 1.25},
        "T": flow_T, "samples": 24,
        "integer_part": {"ok": int(chk.ok.sum()), "count": 24,
                         "worst_excess": float((chk.lhs - chk.bound).max())},
        "inclusion": inclusion,
        "time1_lipschitz": E.estimate_time1_lipschitz(flow, 48, cfg.seed)}


@pytest.mark.parametrize("threads", [0, -3, True, 2.0])
def test_pipeline_refuses_a_bad_thread_count_by_name(threads):
    # each ran silently: the thread count reached only walked cover levels
    with pytest.raises(ValueError, match=r"^threads must be"):
        E.run_pipeline(mini_cfg(), threads=threads, stages=("resolve",))


@pytest.mark.parametrize("stages", [
    ("resolve", "space_average", "ladder"),       # a misspelt stage ran nothing, unreported
    "cover",                                      # a bare string was read as its letters
    ("resolve", None),
], ids=["misspelt", "bare-string", "not-a-name"])
def test_pipeline_refuses_unknown_stages_by_name(stages, monkeypatch):
    def no_stage_runs(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(runner, "modulus_delta_for", no_stage_runs)   # the resolve stage
    with pytest.raises(ValueError, match=r"^stages must be"):
        E.run_pipeline(mini_cfg(), stages=stages)


def test_pipeline_alpha_beyond_observable_range():
    rep = E.run_pipeline(mini_cfg(alphas=(3.0,)),
                         stages=("resolve", "space_average", "ladders", "fits",
                                 "cover", "dimension"))
    for key in ("3.0", "1.5"):
        assert all(e["measure"] == 0.0 for e in rep.data["ladders"][key]["entries"])
        assert "error" in rep.data["ladders"][key]["fit"]
    assert rep.data["verdict"] == "inconclusive"
    assert "empty" in rep.data["dimension"]["verdict_reason"]


def test_lemma_with_no_pair_checked_writes_strict_json():
    # past max_deviation no pair is checked: the infinite worst margin is written as null
    rep = E.run_pipeline(mini_cfg(alphas=(3.0,), lemma_pairs=10),
                         stages=("resolve", "space_average", "lemma"))

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    data = json.loads(E.report_json(rep), parse_constant=refuse)
    assert data["lemma"]["pairs_checked"] == 0 and data["lemma"]["worst_margin"] is None


def test_stage_failure_flushes_partial_report():
    cfg = mini_cfg(cover_n_min=8, cover_n_max=12, grid_budget=50)
    with pytest.raises(StageError) as err:
        E.run_pipeline(cfg)
    assert err.value.stage == "cover"
    partial = err.value.partial_report
    assert partial.data["failed_stage"] == "cover"
    assert "ladders" in partial.data       # earlier stages were kept


def test_write_artifacts(tmp_path):
    rep = E.run_pipeline(mini_cfg(cover_n_min=4, cover_n_max=7))
    paths = E.write_artifacts(rep, tmp_path, fmt="csv")
    names = sorted(os.path.basename(p) for p in paths)
    assert names == ["cover.csv", "ladder_alpha_0.3.csv", "ladder_alpha_0.6.csv",
                     "report.json"]
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["verdict"] in ("bound-holds", "bound-violated", "inconclusive")
    header = (tmp_path / "ladder_alpha_0.6.csv").read_text().splitlines()[0]
    assert header == "n,measure,std_error,samples,method"
    json_only = E.write_artifacts(rep, tmp_path / "j", fmt="json")
    assert [os.path.basename(p) for p in json_only] == ["report.json"]


# sha256 of the CSV artifacts of mini_cfg(cover_n_min=4, cover_n_max=7),
# recorded before write_artifacts, ladder_to_csv and cover_to_csv shared a writer
CSV_SHA256 = {
    "cover.csv": "375128796a75755a1a63068250524fcfb23d07e242c6cde628d64153817a7227",
    "ladder_alpha_0.3.csv": "baa4a722d953957d67aee133c9ae0f6d13732f713dd54cf65678af2d2eed1ed9",
    "ladder_alpha_0.6.csv": "8b639f80983e7202bcf6a1b56ef9354fcf69d58d3cd02eb534c5a3fa03f4eb69",
}


def test_csv_artifacts_are_pinned_and_match_the_ladder_writers(tmp_path, monkeypatch):
    built = {}

    def keep(name):
        fn = getattr(runner, name)

        def wrapped(*args, **kwargs):
            built[name] = fn(*args, **kwargs)
            return built[name]
        monkeypatch.setattr(runner, name, wrapped)

    keep("build_deviation_ladders")
    keep("build_cover_ladder")
    rep = E.run_pipeline(mini_cfg(cover_n_min=4, cover_n_max=7))
    E.write_artifacts(rep, tmp_path / "report", fmt="csv")
    for alpha, lad in built["build_deviation_ladders"].items():
        E.ladder_to_csv(lad, tmp_path / f"ladder_alpha_{alpha!r}.csv")
    E.cover_to_csv(built["build_cover_ladder"], tmp_path / "cover.csv")
    for name, digest in CSV_SHA256.items():
        for where in (tmp_path / "report", tmp_path):
            assert hashlib.sha256((where / name).read_bytes()).hexdigest() == digest, where / name


def test_cli_stage_sets():
    assert _STAGES_FOR["report"] == STAGES
    assert _STAGES_FOR["simulate"] == ("resolve", "space_average", "ladders")
    assert "dimension" in _STAGES_FOR["dimension"]
    assert "lemma" in _STAGES_FOR["verify"] and "flow" in _STAGES_FOR["verify"]
    for stages in _STAGES_FOR.values():
        # each subcommand's stages are distinct names from STAGES, in its order
        assert list(stages) == sorted(set(stages), key=STAGES.index)


def test_cli_success_and_artifacts(tmp_path, capsys):
    ini = write_cfg(tmp_path, mini_cfg(cover_n_min=4, cover_n_max=7))
    out = tmp_path / "out"
    code = main(["dimension", "--config", ini, "--out", str(out), "--format", "csv"])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(out / "report.json") in printed
    assert (out / "cover.csv").exists()
    assert (out / "ladder_alpha_0.3.csv").exists()


def test_cli_usage_and_config_errors(tmp_path, capsys):
    assert main(["report", "--config", str(tmp_path / "absent.ini")]) == 2
    assert "cannot read" in capsys.readouterr().err
    ini = write_cfg(tmp_path, mini_cfg())
    assert main(["report", "--config", ini, "--seed", "-3"]) == 2
    assert main(["report", "--config", ini, "--seed", str(2**64)]) == 2
    assert capsys.readouterr().err.startswith("ergolab: seed:")
    assert main(["report", "--config", ini, "--threads", "0"]) == 2
    assert main(["frobnicate", "--config", ini]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[deviation]\nsample_count = 10\n")
    assert main(["simulate", "--config", str(bad)]) == 2
    capsys.readouterr()
    bad.write_text("[deviation]\nalphas = 0.6, abc\n")
    assert main(["simulate", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("ergolab: alphas: cannot parse")
    bad.write_text("[deviation]\nn_max = 200\n")
    assert main(["simulate", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("ergolab: n_max:")
    bad.write_text("[system]\nsystem_id = cat\n[deviation]\nn_max = 55\n")
    assert main(["simulate", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("ergolab: n_max: horizon 55 is past n=54")
    # the shipped doubling config with a cover level past the float64 budget
    # is refused before any compute, not failed in the cover stage
    shipped = E.load_config("configs/doubling.ini")
    for field, value in (("cover_n_max", 50), ("lemma_n", 200)):
        ini = write_cfg(tmp_path, dataclasses.replace(shipped, **{field: value}))
        assert main(["report", "--config", ini, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"ergolab: {field}:")


def test_horizons_inside_the_budgets_pass_validation():
    E.validate_config(mini_cfg(n_max=76, cover_n_min=10, cover_n_max=45,
                               lemma_pairs=10, lemma_n=45))
    # budgets bind only the stages that run
    E.validate_config(mini_cfg(system_id="cat", n_max=54, cover_n_max=100,
                               lemma_n=100))


def test_default_n_max_is_past_the_cat_budget():
    # the default horizon 60 suits doubling and tent; a cat config sets n_max
    E.validate_config(E.ExperimentConfig(system_id="doubling"))
    with pytest.raises(ValidationError) as err:
        E.validate_config(E.ExperimentConfig(system_id="cat"))
    assert str(err.value).split(":")[0] == "n_max"


def test_cli_stage_failure_exits_1_with_partial_artifacts(tmp_path, capsys):
    ini = write_cfg(tmp_path, mini_cfg(cover_n_min=8, cover_n_max=12,
                                       grid_budget=50))
    out = tmp_path / "partial"
    code = main(["report", "--config", ini, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "cover" in err and "partial artifacts" in err
    data = json.loads((out / "report.json").read_text())
    assert data["failed_stage"] == "cover"
    assert "ladders" in data


def test_cli_out_dir_precedence(tmp_path, monkeypatch, capsys):
    ini = write_cfg(tmp_path, mini_cfg())
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("ERGOLAB_OUT", str(env_dir))
    assert main(["simulate", "--config", ini]) == 0
    assert (env_dir / "report.json").exists()
    # --out beats the environment
    flag_dir = tmp_path / "from_flag"
    assert main(["simulate", "--config", ini, "--out", str(flag_dir)]) == 0
    assert (flag_dir / "report.json").exists()
    # a config-file out_dir beats the environment too
    cfg_dir = tmp_path / "from_cfg"
    ini2 = write_cfg(tmp_path, mini_cfg(out_dir=str(cfg_dir)), name="exp2.ini")
    assert main(["simulate", "--config", ini2]) == 0
    assert (cfg_dir / "report.json").exists()
    capsys.readouterr()


def test_cli_reads_percent_signs(tmp_path, capsys):
    out = tmp_path / "runs" / "100%"
    ini = tmp_path / "exp.ini"
    ini.write_text(E.config_to_ini(mini_cfg()).replace("out_dir = \n", f"out_dir = {out}\n"))
    assert main(["simulate", "--config", str(ini)]) == 0
    assert (out / "report.json").exists()
    capsys.readouterr()


def test_cli_seed_override_changes_measures(tmp_path, capsys):
    ini = write_cfg(tmp_path, mini_cfg())
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", ini, "--seed", "1", "--out", str(a_dir)]) == 0
    assert main(["simulate", "--config", ini, "--seed", "2", "--out", str(b_dir)]) == 0
    capsys.readouterr()
    a = json.loads((a_dir / "report.json").read_text())
    b = json.loads((b_dir / "report.json").read_text())
    assert a["config"]["seed"] == 1 and b["config"]["seed"] == 2
    ma = [e["measure"] for e in a["ladders"]["0.3"]["entries"]]
    mb = [e["measure"] for e in b["ladders"]["0.3"]["entries"]]
    assert ma != mb


def test_cli_threads_do_not_change_report_bytes(tmp_path, capsys):
    ini = write_cfg(tmp_path, mini_cfg(cover_n_min=4, cover_n_max=9,
                                       lemma_pairs=500, flow_enabled=True,
                                       flow_T=8.0, flow_samples=10))
    outs = []
    for threads, sub in (("1", "t1"), ("4", "t4")):
        out = tmp_path / sub
        assert main(["report", "--config", ini, "--threads", threads,
                     "--out", str(out)]) == 0
        data = json.loads((out / "report.json").read_text())
        data.pop("timings")
        outs.append(json.dumps(data, sort_keys=True))
    capsys.readouterr()
    assert outs[0] == outs[1]
