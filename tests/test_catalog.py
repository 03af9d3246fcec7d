"""The system and observable catalog: ids, parameter rules, horizon budgets.

Cases are generated from the catalog entries, so a new entry or parameter
rule is covered without editing this file.
"""

import math

import numpy as np
import pytest

import ergolab as E
from ergolab import runner
from ergolab.errors import ValidationError, check_real
from ergolab.observables import OBSERVABLES
from ergolab.systems import FLOAT64_BITS, SYSTEMS, check_float64_horizon

# a catalog parameter p is read from the config field system_p or bump_p
PREFIX = {"system": "system_", "observable": "bump_"}


def valid_value(p):
    """A value inside the rule's interval: its closed lower end, if it has one."""
    if p.ends[0] == "[" and math.isfinite(p.lo):
        return p.lo
    if math.isfinite(p.lo) and math.isfinite(p.hi):
        return (p.lo + p.hi) / 2.0
    return p.lo + 1.0 if math.isfinite(p.lo) else p.hi - 1.0


def bad_values(p):
    """None (missing), and the first value outside each finite end."""
    out = [None]
    if math.isfinite(p.lo):
        out.append(p.lo if p.ends[0] == "(" else p.lo - 1.0)
    if math.isfinite(p.hi):
        out.append(p.hi if p.ends[1] == ")" else p.hi + 1.0)
    return out


def valid_params(entry):
    return {p.name: valid_value(p) for p in entry.params}


def config_for(sid, skw, oid, okw):
    fields = {PREFIX["system"] + k: v for k, v in skw.items()}
    fields.update({PREFIX["observable"] + k: v for k, v in okw.items()})
    # n_max 40 is inside every ensemble budget (cat's is 54)
    return E.ExperimentConfig(system_id=sid, observable_id=oid, n_max=40, **fields)


PAIRS = [(sid, oid) for sid in SYSTEMS for oid in OBSERVABLES]

# (kind, id, parameter, value) for every value a rule must refuse
BAD = [(kind, key, p.name, v)
       for kind, table in (("system", SYSTEMS), ("observable", OBSERVABLES))
       for key, entry in table.items()
       for p in entry.params for v in bad_values(p)]


def build(kind, key, params):
    if kind == "system":
        return E.get_system(key, **params)
    return E.get_observable(key, E.get_system(next(iter(SYSTEMS))), **params)


@pytest.mark.parametrize("sid,oid", PAIRS)
def test_every_pair_validates_and_resolves_like_the_constructors(sid, oid):
    skw, okw = valid_params(SYSTEMS[sid]), valid_params(OBSERVABLES[oid])
    cfg = config_for(sid, skw, oid, okw)
    E.validate_config(cfg)
    sys, obs = runner._resolve(cfg)
    direct = E.get_system(sid, **skw)
    assert sys == direct
    assert obs == E.get_observable(oid, direct, **okw)


@pytest.mark.parametrize("kind,key,name,value", BAD)
def test_a_broken_rule_fails_the_constructor_and_the_config(kind, key, name, value):
    tables = {"system": SYSTEMS, "observable": OBSERVABLES}
    ids = {k: next(iter(t)) for k, t in tables.items()}
    ids[kind] = key
    kws = {k: valid_params(tables[k][ids[k]]) for k in tables}
    kws[kind][name] = value
    with pytest.raises(ValueError):
        build(kind, key, kws[kind])
    with pytest.raises(ValidationError) as err:
        E.validate_config(config_for(ids["system"], kws["system"],
                                     ids["observable"], kws["observable"]))
    assert str(err.value).split(":")[0] == PREFIX[kind] + name


def test_logistic_endpoints_are_among_the_cases():
    assert ("system", "logistic", "c", 0.25) in BAD
    assert valid_params(SYSTEMS["logistic"]) == {"c": -2.0}
    assert E.get_system("logistic", c=-2.0).hi == 2.0
    E.validate_config(config_for("logistic", {"c": -2.0}, "cos1", {}))


def test_bump_requires_w_in_the_constructor_and_the_config():
    sysd = E.get_system("doubling")
    with pytest.raises(ValueError, match="requires parameter w"):
        E.get_observable("bump", sysd, a=0.1)
    with pytest.raises(ValidationError, match="^bump_w:"):
        E.validate_config(E.ExperimentConfig(observable_id="bump", bump_a=0.1))


@pytest.mark.parametrize("kind,key", [("system", "henon"), ("observable", "spike")])
def test_unknown_ids(kind, key):
    with pytest.raises(ValueError, match="unknown"):
        build(kind, key, {})
    field = "system_id" if kind == "system" else "observable_id"
    with pytest.raises(ValidationError) as err:
        E.validate_config(E.ExperimentConfig(**{field: key}))
    assert str(err.value).split(":")[0] == field


@pytest.mark.parametrize("sid", list(SYSTEMS))
def test_float64_budget_is_n_log2_L_at_most_45(sid):
    sysm = E.get_system(sid, **valid_params(SYSTEMS[sid]))
    deepest = int(FLOAT64_BITS / math.log2(sysm.L))
    assert deepest * math.log2(sysm.L) <= FLOAT64_BITS < (deepest + 1) * math.log2(sysm.L)
    check_float64_horizon(sysm, deepest)
    with pytest.raises(ValueError, match=f"n={deepest}"):
        check_float64_horizon(sysm, deepest + 1)


def test_check_real_holds_every_entry_of_an_array_to_the_interval():
    # the one interval rule of scalars also takes arrays: each entry must
    # lie inside, the error names the argument and quotes the first entry
    # (in C order) that does not, and the array comes back as float64
    got = check_real("x", np.array([[0, 1], [1, 0]]), 0.0, 1.0)
    assert got.dtype == np.float64 and got.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert check_real("x", np.empty(0), 0.0, 1.0, "()").size == 0
    for value, ends, first in (([0.5, 1.5, -1.0], "[]", "1.5"), ([0.5, 0.0], "(]", "0.0"),
                               ([[0.5, math.nan], [2.0, 0.5]], "[]", "nan")):
        with pytest.raises(ValueError, match=rf"^x must lie in \{ends[0]}0, 1\{ends[1]}, "
                                             rf"got {first}$"):
            check_real("x", np.array(value), 0.0, 1.0, ends)
    for value in (np.array([True, False]), np.array(["0.5"]), np.array([0.5j])):
        with pytest.raises(ValueError, match=r"^x must hold real numbers"):
            check_real("x", value)
    assert check_real("x", np.float32(0.5), 0.0, 1.0) == 0.5   # a 0-d value stays a float
