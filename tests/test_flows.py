"""Suspension flows: event-driven stepping, flow averages, and the two
bridge checks back to the base map."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

import ergolab as E
from ergolab import flows as flows_mod
from ergolab.errors import DomainError

_TWO_PI = 2.0 * math.pi


def unit_flow():
    return E.SuspensionFlow(E.get_system("doubling"), E.constant_roof(1.0))


def test_roof_validation():
    r = E.constant_roof(0.7)
    assert (r.rho_min, r.rho_max) == (0.7, 0.7)
    c = E.cosine_roof(0.3)
    assert (c.rho_min, c.rho_max) == (0.7, 1.3)
    assert c.fn(np.array([[0.0]]))[0] == pytest.approx(1.3)
    assert c.fn(np.array([[0.5]]))[0] == pytest.approx(0.7)
    with pytest.raises(ValueError):
        E.constant_roof(0.0)
    with pytest.raises(ValueError):
        E.constant_roof(-1.0)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="constant roof value"):
            E.constant_roof(value)
    with pytest.raises(ValueError):
        E.cosine_roof(1.0)
    with pytest.raises(ValueError):
        E.cosine_roof(-1.2)


def test_flow_step_worked_values():
    flow = unit_flow()
    # reaching the roof exactly crosses: (0.3, 0.6) + 0.4 -> (f(0.3), 0)
    out = E.flow_step(flow, E.FlowState(np.array([0.3]), 0.6), 0.4)
    assert out.x[0] == 0.6 and out.s == 0.0
    out = E.flow_step(flow, E.FlowState(np.array([0.3]), 0.6), 0.39)
    assert out.x[0] == 0.3 and out.s == pytest.approx(0.99)
    # two crossings and a quarter of the third fiber
    out = E.flow_step(flow, E.FlowState(np.array([0.3]), 0.0), 2.25)
    assert out.x[0] == pytest.approx(0.2, abs=1e-12)
    assert out.s == 0.25
    # zero time is the identity
    st = E.FlowState(np.array([0.3]), 0.125)
    out = E.flow_step(flow, st, 0.0)
    assert out.x[0] == 0.3 and out.s == 0.125


def test_flow_step_validation():
    flow = unit_flow()
    with pytest.raises(ValueError):
        E.flow_step(flow, E.FlowState(np.array([0.3]), 0.0), -0.1)
    with pytest.raises(DomainError):
        E.flow_step(flow, E.FlowState(np.array([0.3]), 1.0), 0.1)   # s >= roof
    with pytest.raises(DomainError):
        E.flow_step(flow, E.FlowState(np.array([0.3]), -0.1), 0.1)
    with pytest.raises(DomainError):
        E.flow_step(flow, E.FlowState(np.array([1.3]), 0.0), 0.1)
    with pytest.raises(DomainError, match="point"):              # not as a fiber height
        E.flow_step(flow, E.FlowState(np.array([math.nan]), 0.0), 0.1)


def test_array_times_are_refused_by_name_with_their_first_bad_entry():
    # an array of flow times is held to the interval entry by entry, by
    # the same check as a single time, and the error quotes the first bad one
    flow = unit_flow()
    fobs = E.fiber_constant(E.get_observable("cos1", flow.base))
    batch = E.FlowState(np.array([[0.3], [0.6], [0.1]]), np.zeros(3))
    with pytest.raises(ValueError, match=r"^t must lie in \[0, inf\), got -0\.5$"):
        E.flow_step(flow, batch, np.array([0.2, -0.5, math.nan]))
    with pytest.raises(ValueError, match=r"^T must lie in \(0, inf\), got 0\.0$"):
        E.flow_time_average(flow, fobs, batch, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ValueError, match=r"^T must lie in \[0, inf\), got inf$"):
        E.flow_nontypical_inclusion_check(flow, fobs, 0.0, 0.6, batch,
                                          np.array([3.0, math.inf, 3.0]))


def test_flow_step_semigroup_under_cosine_roof():
    flow = E.SuspensionFlow(E.get_system("doubling"), E.cosine_roof(0.4))
    st = E.FlowState(np.array([0.137]), 0.2)
    one = E.flow_step(flow, st, 1.7)
    two = E.flow_step(flow, E.flow_step(flow, st, 0.9), 0.8)
    assert E.distance(flow.base, one.x, two.x) <= 1e-9
    assert one.s == pytest.approx(two.s, abs=1e-9)


def test_flow_average_reduces_to_map_average():
    # roof 1, fiber-constant observable, integer horizon, launched from s=0:
    # the flow average IS the base Birkhoff average
    flow = unit_flow()
    cos1 = E.get_observable("cos1", flow.base)
    fobs = E.fiber_constant(cos1)
    states, _ = E.sample_flow_states(flow, seed=21, start=0, count=50)
    for st in states:
        grounded = E.FlowState(st.x, 0.0)
        for T in (1, 5, 12):
            a_flow = E.flow_time_average(flow, fobs, grounded, float(T))
            a_map = E.time_average(flow.base, cos1, st.x, T)
            assert a_flow == pytest.approx(float(np.asarray(a_map).reshape(-1)[0]),
                                           abs=1e-12)


def test_flow_average_roof_rescaling():
    # roof c: T flow units traverse T/c base steps
    flow = E.SuspensionFlow(E.get_system("doubling"), E.constant_roof(0.5))
    cos1 = E.get_observable("cos1", flow.base)
    fobs = E.fiber_constant(cos1)
    x = np.array([0.3])
    a_flow = E.flow_time_average(flow, fobs, E.FlowState(x, 0.0), 10.0)
    a_map = E.time_average(flow.base, cos1, 0.3, 20)
    assert a_flow == pytest.approx(a_map, abs=1e-12)


def test_flow_average_at_fixed_point():
    flow = unit_flow()
    fobs = E.fiber_constant(E.get_observable("cos1", flow.base))
    for T in (1.0, 7.0, 12.75):
        got = E.flow_time_average(flow, fobs, E.FlowState(np.array([0.0]), 0.0), T)
        assert got == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        E.flow_time_average(flow, fobs, E.FlowState(np.array([0.0]), 0.0), 0.0)
    for step in (0.0, math.nan):
        with pytest.raises(ValueError, match="quadrature_step"):
            E.flow_time_average(flow, fobs, E.FlowState(np.array([0.0]), 0.0), 1.0,
                                quadrature_step=step)


def test_quadrature_is_second_order_in_the_fiber():
    # a genuinely s-dependent observable: midpoint error shrinks ~4x per halving
    flow = unit_flow()
    fobs = E.FlowObservable("sinfiber", lambda x, s: np.sin(math.pi * s), 1.0)
    st = E.FlowState(np.array([0.3]), 0.0)
    exact = 2.0 / math.pi
    errs = [abs(E.flow_time_average(flow, fobs, st, 6.0, quadrature_step=h) - exact)
            for h in (0.2, 0.1, 0.05)]
    assert errs[1] / errs[0] <= 0.6
    assert errs[2] / errs[1] <= 0.6


def test_integer_part_reduction_check():
    flow = unit_flow()
    fobs = E.fiber_constant(E.get_observable("cos1", flow.base))
    st = E.FlowState(np.array([0.3]), 0.55)
    chk = E.integer_part_reduction_check(flow, fobs, st, 10.7)
    assert chk.ok
    assert chk.lhs <= chk.bound
    assert chk.bound == pytest.approx(2.0 * 0.7 / 10.7, abs=1e-9)
    assert chk.headline_constant == pytest.approx(1.0 / 10.0)
    # integer horizon: both averages are the same number
    chk0 = E.integer_part_reduction_check(flow, fobs, st, 8.0)
    assert chk0.lhs == 0.0 and chk0.ok and chk0.headline_ok
    with pytest.raises(ValueError):
        E.integer_part_reduction_check(flow, fobs, st, 1.9)


def test_integer_part_reduction_sampled_sweep():
    flow = unit_flow()
    fobs = E.fiber_constant(E.get_observable("cos1", flow.base))
    states, extra = E.sample_flow_states(flow, seed=33, start=0, count=200)
    for st, u in zip(states, extra):
        T = 2.0 + 48.0 * float(u)
        chk = E.integer_part_reduction_check(flow, fobs, st, T)
        assert chk.ok, f"factor-2 bound failed at T={T}"


def test_nontypical_inclusion_check():
    flow = unit_flow()
    fobs = E.fiber_constant(E.get_observable("cos1", flow.base))
    # typical state: deviation never reaches alpha, implication is vacuous
    st = E.FlowState(np.array([0.371]), 0.0)
    inc = E.flow_nontypical_inclusion_check(flow, fobs, 0.0, 0.6, st, 50.0)
    assert inc.vacuous and inc.ok and inc.dev_map is None
    # the fixed point deviates maximally: the map-side deviation must follow
    fixed = E.FlowState(np.array([0.0]), 0.0)
    inc = E.flow_nontypical_inclusion_check(flow, fobs, 0.0, 0.6, fixed, 50.0)
    assert not inc.vacuous
    assert inc.dev_flow == pytest.approx(1.0, abs=1e-12)
    assert inc.dev_map == pytest.approx(1.0, abs=1e-12)
    assert inc.ok
    with pytest.raises(ValueError):
        E.flow_nontypical_inclusion_check(flow, fobs, 0.0, 0.3, st, 13.0)  # T too short
    with pytest.raises(ValueError):
        E.flow_nontypical_inclusion_check(flow, fobs, 0.0, 0.0, st, 50.0)


@pytest.mark.parametrize("arg,call", [
    ("alpha", lambda f, o, st: E.flow_nontypical_inclusion_check(f, o, 0.0, math.nan, st, 50.0)),
    ("phibar", lambda f, o, st: E.flow_nontypical_inclusion_check(f, o, math.nan, 0.6, st, 50.0)),
    ("phibar", lambda f, o, st: E.flow_nontypical_inclusion_check(f, o, math.inf, 0.6, st, 50.0)),
    ("pair_count", lambda f, o, st: E.estimate_time1_lipschitz(f, 10.5, 1)),
    ("start", lambda f, o, st: E.sample_flow_batch(f, 1, 1.5, 3)),
    ("count", lambda f, o, st: E.sample_flow_batch(f, 1, 0, 3.0)),
    ("value", lambda f, o, st: E.constant_roof(True)),
    ("quadrature_step", lambda f, o, st: E.flow_time_average(f, o, st, 3.0, quadrature_step=True)),
    ("t", lambda f, o, st: E.flow_step(f, st, True)),
    ("T", lambda f, o, st: E.flow_time_average(f, o, st, True)),
], ids=["inclusion-alpha", "inclusion-phibar-nan", "inclusion-phibar-inf",
        "lipschitz-pair_count", "batch-start", "batch-count", "roof-value-bool",
        "quadrature_step-bool", "step-t-bool", "average-T-bool"])
def test_flow_inputs_are_refused_by_name(arg, call):
    # a NaN alpha or phibar read as a violation (vacuous=False, ok=False),
    # a float pair count failed inside numpy, and a float start was
    # truncated to the block below it
    flow = unit_flow()
    fobs = E.fiber_constant(E.get_observable("cos1", flow.base))
    with pytest.raises(ValueError, match=rf"\b{arg}\b"):
        call(flow, fobs, E.FlowState(np.array([0.0]), 0.0))


def test_sample_flow_states():
    flow = E.SuspensionFlow(E.get_system("doubling"), E.cosine_roof(0.5))
    states, extra = E.sample_flow_states(flow, seed=4, start=0, count=300)
    assert len(states) == 300 and extra.shape == (300,)
    for st in states:
        room = float(flow.roof.fn(st.x.reshape(1, 1))[0])
        assert 0.0 <= st.s < room
    assert np.all((extra >= 0.0) & (extra < 1.0))
    # block addressing: chunked draws glue into the same sequence
    left, el = E.sample_flow_states(flow, seed=4, start=0, count=120)
    right, er = E.sample_flow_states(flow, seed=4, start=120, count=180)
    glued = left + right
    assert all(np.array_equal(a.x, b.x) and a.s == b.s
               for a, b in zip(states, glued))
    assert np.array_equal(extra, np.concatenate([el, er]))
    # the batch draw holds the same states and uniforms
    batch, eb = E.sample_flow_batch(flow, seed=4, start=0, count=300)
    assert np.array_equal(batch.x, np.stack([st.x for st in states]))
    assert np.array_equal(batch.s, np.array([st.s for st in states]))
    assert np.array_equal(eb, extra)


def test_time1_lipschitz_estimate(monkeypatch):
    flow = unit_flow()
    calls = []
    step = flows_mod.flow_step
    monkeypatch.setattr(flows_mod, "flow_step", lambda *a: calls.append(a) or step(*a))
    lip = E.estimate_time1_lipschitz(flow, 500, seed=9)
    assert len(calls) == 1                        # both members of every pair in one walk
    # the time-1 map of the unit-roof suspension applies one doubling step
    assert 1.5 <= lip <= 2.0 * (1.0 + 1e-6)
    bent = E.SuspensionFlow(E.get_system("doubling"), E.cosine_roof(0.3))
    lip2 = E.estimate_time1_lipschitz(bent, 500, seed=9)
    assert math.isfinite(lip2) and lip2 > 1.0
    with pytest.raises(ValueError):
        E.estimate_time1_lipschitz(flow, 0, seed=9)


def test_suspension_over_cat_map():
    flow = E.SuspensionFlow(E.get_system("cat"), E.constant_roof(1.0))
    cos1 = E.get_observable("cos1", flow.base)
    fobs = E.fiber_constant(cos1)
    x = np.array([0.21, 0.34])
    out = E.flow_step(flow, E.FlowState(x, 0.0), 3.0)
    assert np.allclose(out.x, E.iterate(flow.base, x, 3), atol=0.0)
    a_flow = E.flow_time_average(flow, fobs, E.FlowState(x, 0.0), 9.0)
    a_map = E.time_average(flow.base, cos1, x, 9)
    assert a_flow == pytest.approx(float(a_map), abs=1e-12)


# ---------------------------------------------------------------------------
# batched kernels against the one-state segment loop

def ref_time_average(flow, fobs, x, s, T, quadrature_step=None):
    """The one-state segment loop; batched averages must equal it bit for bit."""
    step = flow.roof.rho_min / 8.0 if quadrature_step is None else float(quadrature_step)
    pts = np.asarray(x, dtype=np.float64).reshape(1, flow.base.d)
    remaining = float(T)
    total = 0.0
    for _ in range(int(remaining / flow.roof.rho_min) + 2):
        room = float(flow.roof.fn(pts)[0]) - s
        crossing = room <= remaining
        seg = room if crossing else remaining
        k = max(1, math.ceil(seg / step))
        h = seg / k
        offs = s + (np.arange(k, dtype=np.float64) + 0.5) * h
        vals = fobs.fn(np.broadcast_to(pts, (k, pts.shape[1])), offs)
        total += h * float(np.sum(vals))
        remaining -= seg
        if not crossing:
            break
        pts = flow.base._step(pts, np.empty_like(pts))
        s = 0.0
    return total / T


def ref_flow_step(flow, x, s, t):
    """The one-state event loop; batched steps must equal it bit for bit."""
    pts = np.asarray(x, dtype=np.float64).reshape(1, flow.base.d)
    remaining = float(t)
    for _ in range(int(remaining / flow.roof.rho_min) + 2):
        room = float(flow.roof.fn(pts)[0]) - s
        if remaining < room:
            s += remaining
            break
        remaining -= room
        pts = flow.base._step(pts, np.empty_like(pts))
        s = 0.0
    return pts[0], s


def edge_batch(flow, seed, count):
    """Sampled states plus rows at s = 0 and just under the roof."""
    states, extra = E.sample_flow_states(flow, seed, 0, count)
    sx = np.stack([st.x for st in states])
    ss = np.array([st.s for st in states])
    x = np.concatenate([sx, sx[:4], sx[4:8]])
    top = flow.roof.fn(sx[4:8])
    s = np.concatenate([ss, np.zeros(4), np.nextafter(top, -np.inf)])
    return E.FlowState(x, s), np.concatenate([extra, extra[:8]])


BASES = [
    (E.get_system("doubling"), E.constant_roof(1.0)),
    (E.get_system("doubling"), E.cosine_roof(0.4)),
    (E.get_system("tent"), E.cosine_roof(-0.6)),
    (E.get_system("tent"), E.constant_roof(0.37)),
    (E.get_system("cat"), E.cosine_roof(0.3)),
    (E.get_system("logistic", c=-1.4), E.cosine_roof(0.5)),
]


@pytest.mark.parametrize("base,roof", BASES, ids=lambda v: getattr(v, "sid", None)
                         or getattr(v, "kind", None))
def test_batched_kernels_equal_the_one_state_loop(base, roof):
    flow = E.SuspensionFlow(base, roof)
    batch, extra = edge_batch(flow, seed=11, count=16)
    fobs_list = [E.fiber_constant(E.get_observable("cos1", base)),
                 E.fiber_constant(E.get_observable("coord", base)),
                 E.FlowObservable("mixed", lambda x, s: np.cos(_TWO_PI * x[:, 0])
                                  * np.sin(3.0 * s) + s, 2.5)]
    # per-state horizons ending exactly on a roof crossing, where room <= rem ties
    ties = [roof.fn(batch.x) - batch.s]
    if roof.kind == "constant":
        ties.append(ties[0] + roof.rho_max)
    horizons = [6.0, 3.5, 2.0 + 7.0 * extra] + ties   # integer, fractional, per state
    for fobs in fobs_list:
        for qstep in (None, 0.07):
            for T in horizons:
                got = E.flow_time_average(flow, fobs, batch, T, qstep)
                Ts = np.broadcast_to(T, batch.s.shape)
                want = [ref_time_average(flow, fobs, batch.x[i], float(batch.s[i]),
                                         float(Ts[i]), qstep)
                        for i in range(len(batch.s))]
                assert got.tolist() == want
                one = E.flow_time_average(flow, fobs, E.FlowState(batch.x[3], batch.s[3]),
                                          float(Ts[3]), qstep)
                assert one == want[3]
    for t in [0.0, 1.0, 2.75, 3.0 * extra] + ties:
        out = E.flow_step(flow, batch, t)
        ts = np.broadcast_to(t, batch.s.shape)
        for i in range(len(batch.s)):
            x_ref, s_ref = ref_flow_step(flow, batch.x[i], float(batch.s[i]), float(ts[i]))
            assert out.x[i].tolist() == x_ref.tolist() and out.s[i] == s_ref


@pytest.mark.parametrize("roof", [E.constant_roof(1.0), E.cosine_roof(0.4)],
                         ids=lambda r: r.kind)
def test_wide_blocks_equal_the_one_state_loop(roof):
    # 300 states make blocks of 300 columns, n * n past _POINT_CHUNK: their
    # remaining times take the one accumulation of every block, and each
    # state's flow average and flow step keep the one-state loop's bits
    flow = E.SuspensionFlow(E.get_system("doubling"), roof)
    fobs = E.fiber_constant(E.get_observable("cos1", flow.base))
    batch, extra = edge_batch(flow, seed=13, count=292)
    assert len(batch.s) ** 2 >= flows_mod._POINT_CHUNK
    T = 3.0 + 5.0 * extra
    got = E.flow_time_average(flow, fobs, batch, T)
    out = E.flow_step(flow, batch, T)
    for i in range(len(batch.s)):
        x, s, t = batch.x[i], float(batch.s[i]), float(T[i])
        assert got[i] == ref_time_average(flow, fobs, x, s, t)
        x_ref, s_ref = ref_flow_step(flow, x, s, t)
        assert out.x[i].tolist() == x_ref.tolist() and out.s[i] == s_ref


def test_fine_quadrature_is_chunked_and_exact(monkeypatch):
    # a constant roof puts every full crossing in one node-count group
    flow = E.SuspensionFlow(E.get_system("doubling"), E.constant_roof(1.0))
    fobs = E.FlowObservable("mixed", lambda x, s: np.cos(_TWO_PI * x[:, 0])
                            * np.sin(3.0 * s) + s, 2.5)
    batch, _ = edge_batch(flow, seed=5, count=12)
    want = [ref_time_average(flow, fobs, batch.x[i], float(batch.s[i]), 3.5, 1e-3)
            for i in range(len(batch.s))]
    for chunk in (1 << 16, 2500, 700):            # several rows, two rows, under one row
        monkeypatch.setattr(flows_mod, "_POINT_CHUNK", chunk)
        assert E.flow_time_average(flow, fobs, batch, 3.5, 1e-3).tolist() == want
    monkeypatch.undo()
    # 200 rows x 10^4 nodes in one group stay within a few chunks of memory
    states, _ = E.sample_flow_states(flow, 8, 0, 200)
    big = E.FlowState(np.stack([st.x for st in states]), np.array([st.s for st in states]))
    tracemalloc.start()
    try:
        E.flow_time_average(flow, fobs, big, 2.0, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6                             # an unchunked group needs ~60 MB


def test_walk_evaluates_the_roof_once_per_block():
    calls = []
    unit = E.constant_roof(1.0)
    roof = E.Roof("constant", lambda p: calls.append(p.shape[0]) or unit.fn(p), 1.0, 1.0)
    flow = E.SuspensionFlow(E.get_system("doubling"), roof)
    fobs = E.fiber_constant(E.get_observable("cos1", flow.base))
    states, _ = E.sample_flow_states(flow, 6, 0, 2000)
    x, s = np.stack([st.x for st in states]), np.array([st.s for st in states])
    calls.clear()
    E.flow_time_average(flow, fobs, E.FlowState(x[:128], s[:128]), 50.0)
    # one call checks the states, one walks the 51 segments a state can take under roof 1
    assert calls == [128, 51 * 128]
    calls.clear()
    E.flow_time_average(flow, fobs, E.FlowState(x, s), 400.0, quadrature_step=1.0)
    # 401 segments of 2000 states, in blocks of at most _POINT_CHUNK pairs
    assert flows_mod._POINT_CHUNK // 2000 == 32
    assert calls == [2000] + [32 * 2000] * 12 + [17 * 2000]
    # far above its floor, a roof sets blocks by r / rho_max, not by the 1002-segment guard
    cos = E.cosine_roof(0.95)
    flow = E.SuspensionFlow(flow.base, E.Roof("cosine", lambda p: calls.append(p.shape[0])
                                              or cos.fn(p), cos.rho_min, cos.rho_max))
    for st in E.sample_flow_states(flow, 6, 0, 4)[0]:
        calls.clear()
        E.flow_time_average(flow, fobs, st, 50.0)
        assert sum(calls[1:]) < 80


def test_long_walk_working_set_is_blocked():
    # a low roof floor makes 1002-segment guards: walked as one block, 2000 states need ~100 MB
    flow = E.SuspensionFlow(E.get_system("doubling"), E.cosine_roof(0.95))
    fobs = E.fiber_constant(E.get_observable("cos1", flow.base))
    states, _ = E.sample_flow_states(flow, 2, 0, 2000)
    big = E.FlowState(np.stack([st.x for st in states]), np.array([st.s for st in states]))
    tracemalloc.start()
    try:
        got = E.flow_time_average(flow, fobs, big, 50.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    for i in range(0, 2000, 197):
        assert got[i] == ref_time_average(flow, fobs, big.x[i], float(big.s[i]), 50.0)


def test_batched_checks_equal_one_state_checks():
    flow = E.SuspensionFlow(E.get_system("doubling"), E.cosine_roof(0.5))
    fobs = E.fiber_constant(E.get_observable("cos1", flow.base))
    batch, extra = edge_batch(flow, seed=3, count=40)
    Ti = 2.0 + 12.0 * extra
    chk = E.integer_part_reduction_check(flow, fobs, batch, Ti)
    inc = E.flow_nontypical_inclusion_check(flow, fobs, 0.0, 0.3, batch, 14.5)
    assert 0 < np.count_nonzero(inc.vacuous) < len(batch.s)
    for i in range(len(batch.s)):
        st = E.FlowState(batch.x[i], float(batch.s[i]))
        one = E.integer_part_reduction_check(flow, fobs, st, float(Ti[i]))
        assert (chk.T[i], chk.lhs[i], chk.bound[i], chk.ok[i], chk.headline_constant[i],
                chk.headline_ok[i]) == (one.T, one.lhs, one.bound, one.ok,
                                        one.headline_constant, one.headline_ok)
        one = E.flow_nontypical_inclusion_check(flow, fobs, 0.0, 0.3, st, 14.5)
        assert (inc.T[i], inc.dev_flow[i], inc.vacuous[i], inc.ok[i]) == \
            (one.T, one.dev_flow, one.vacuous, one.ok)
        if one.vacuous:
            assert one.dev_map is None and math.isnan(inc.dev_map[i])
        else:
            assert inc.dev_map[i] == one.dev_map


def test_flow_average_of_a_subset_keeps_the_batch_bits():
    # a state's flow average does not depend on the batch it is walked in:
    # walking a subset of rows gives the full batch's bits on those rows
    flow = E.SuspensionFlow(E.get_system("doubling"), E.cosine_roof(-0.95))
    fobs = E.fiber_constant(E.get_observable("cos1", flow.base))
    batch, extra = edge_batch(flow, seed=5, count=80)
    T = 4.0 + 16.0 * extra
    full = E.flow_time_average(flow, fobs, batch, T)
    for keep in (np.arange(T.size) % 3 == 1, np.random.default_rng(2).random(T.size) < 0.4):
        sub = E.flow_time_average(flow, fobs, E.FlowState(batch.x[keep], batch.s[keep]),
                                  T[keep])
        assert np.array_equal(sub, full[keep])


def test_inclusion_check_walks_once_at_an_integer_horizon(monkeypatch):
    # at an integer T the map horizon floor(T) is T, so dev_map is dev_flow
    # and one walk serves both; at fractional horizons the values are those
    # of a walk to T of every state and one to floor(T) of the deviating ones
    flow = E.SuspensionFlow(E.get_system("doubling"), E.cosine_roof(0.5))
    fobs = E.fiber_constant(E.get_observable("cos1", flow.base))
    batch, extra = edge_batch(flow, seed=6, count=80)
    walk = flows_mod.flow_time_average
    calls = []

    def counting(*args, **kw):
        calls.append(args[3])
        return walk(*args, **kw)

    monkeypatch.setattr(flows_mod, "flow_time_average", counting)
    inc = E.flow_nontypical_inclusion_check(flow, fobs, 0.0, 0.3, batch, 20.0)
    assert len(calls) == 1
    hit = ~inc.vacuous
    assert 0 < np.count_nonzero(hit) < hit.size
    assert np.array_equal(inc.dev_map[hit], inc.dev_flow[hit])
    assert np.all(np.isnan(inc.dev_map[~hit]))
    for T in (14.5, 14.0 + np.where(np.arange(extra.size) % 2 == 0, 0.0, extra)):
        inc = E.flow_nontypical_inclusion_check(flow, fobs, 0.0, 0.3, batch, T)
        T = np.broadcast_to(T, extra.shape)
        dev_flow = np.abs(walk(flow, fobs, batch, T))
        hit = dev_flow >= 0.3
        dev_map = np.full(T.shape, np.nan)
        dev_map[hit] = np.abs(walk(flow, fobs, E.FlowState(batch.x[hit], batch.s[hit]),
                                   np.floor(T[hit])))
        assert np.array_equal(inc.dev_flow, dev_flow)
        assert np.array_equal(inc.dev_map, dev_map, equal_nan=True)
        assert np.array_equal(inc.ok, ~hit | (dev_map >= 0.15 - 1e-9))


def test_batched_validation_checks_every_row():
    flow = E.SuspensionFlow(E.get_system("doubling"), E.cosine_roof(0.5))
    fobs = E.fiber_constant(E.get_observable("cos1", flow.base))
    x = np.array([[0.0], [0.2], [0.5], [0.7], [0.9]])    # roofs 1.5 ... 0.5 ...
    s = np.array([1.2, 0.3, 0.4, 0.1, 0.0])

    def calls(state):
        return [lambda: E.flow_step(flow, state, 1.0),
                lambda: E.flow_time_average(flow, fobs, state, 5.0),
                lambda: E.integer_part_reduction_check(flow, fobs, state, 5.0),
                lambda: E.flow_nontypical_inclusion_check(flow, fobs, 0.0, 0.6, state, 8.0)]

    for call in calls(E.FlowState(x, s)):
        call()                                           # every row is admissible
    bad_rows = [E.FlowState(x, np.where(np.arange(5) == 2, 0.9, s)),   # s above its own roof
                E.FlowState(x, np.where(np.arange(5) == 2, -1e-9, s)),
                E.FlowState(np.where(np.arange(5)[:, None] == 2, 1.0, x), s)]
    for state in bad_rows:
        for call in calls(state):
            with pytest.raises(DomainError):
                call()
    with pytest.raises(ValueError):
        E.flow_step(flow, E.FlowState(x, s[:4]), 1.0)


def test_flow_block_golden_under_cosine_roof():
    # sha256 of the report's flow block, recorded before the kernels were batched
    cfg = E.ExperimentConfig(alphas=(0.3,), seed=42, space_samples=20000,
                             flow_enabled=True, roof_kind="cosine", roof_param=0.5,
                             flow_T=14.5, flow_samples=60)
    rep = E.run_pipeline(cfg, stages=("resolve", "space_average", "flow"))
    block = json.dumps(rep.data["flow"], sort_keys=True)
    assert rep.data["flow"]["inclusion"]["vacuous"] == 42
    assert hashlib.sha256(block.encode()).hexdigest() == \
        "8dbdb9aa3294f27d1060aa355920a3a60ac6cfc2793d60e02d777c0373e3bbfa"


@pytest.mark.parametrize("sid", ["doubling", "cat"])
@pytest.mark.parametrize("roof", [E.constant_roof(1.0), E.cosine_roof(0.4)],
                         ids=lambda r: r.kind)
def test_fiber_constant_marker_keeps_the_node_by_node_bits(sid, roof):
    # the marked observable evaluates its base once per segment; the same fn
    # declared without the marker evaluates it at every node: same bits
    base = E.get_system(sid)
    flow = E.SuspensionFlow(base, roof)
    batch, extra = edge_batch(flow, seed=17, count=16)
    ties = roof.fn(batch.x) - batch.s              # horizons ending on a roof crossing
    for oid, kw in (("cos1", {}), ("coord", {}), ("bump", {"a": 0.2, "w": 0.1})):
        obs = E.get_observable(oid, base, **kw)
        marked = E.fiber_constant(obs)
        plain = E.FlowObservable(obs.oid, lambda x, s, _f=obs.fn: _f(x), obs.sup_abs)
        assert marked.base is obs.fn and plain.base is None
        for qstep in (None, 0.07, 1e-3):           # 1e-3 splits node groups into chunks
            for T in (3.5, 2.0 + 7.0 * extra, ties):
                got = E.flow_time_average(flow, marked, batch, T, qstep)
                assert got.tolist() == E.flow_time_average(flow, plain, batch, T,
                                                           qstep).tolist()


def test_fiber_constant_base_runs_once_per_walk_block():
    roof_calls, base_calls, node_calls = [], [], []
    unit = E.constant_roof(1.0)
    roof = E.Roof("constant", lambda p: roof_calls.append(p.shape[0]) or unit.fn(p), 1.0, 1.0)
    flow = E.SuspensionFlow(E.get_system("doubling"), roof)
    obs = E.get_observable("cos1", flow.base)

    def never(x, s):
        raise AssertionError("a fiber-constant observable ran node by node")

    marked = E.FlowObservable("cos1", never, 1.0,
                              lambda x: base_calls.append(x.shape[0]) or obs.fn(x))
    plain = E.FlowObservable("cos1", lambda x, s: node_calls.append(1) or obs.fn(x), 1.0)
    states, _ = E.sample_flow_batch(flow, 6, 0, 2000)
    roof_calls.clear()
    got = E.flow_time_average(flow, marked, states, 50.0, quadrature_step=0.01)
    # one roof call checks the states, then one per block: 51 segments as 32 + 19
    assert roof_calls == [2000, 32 * 2000, 19 * 2000]
    assert len(base_calls) == 2 and base_calls[0] == 32 * 2000
    want = E.flow_time_average(flow, plain, states, 50.0, quadrature_step=0.01)
    assert got.tolist() == want.tolist()
    assert len(node_calls) > 100                   # a call per chunk of each node group
