"""Catalog systems: orbits, metrics, ensembles, and space averages."""

import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

import ergolab as E
from ergolab import observables, systems
from ergolab.errors import DomainError
from ergolab.observables import _CHUNK, _mean_and_error, deviations, float32_band, terms
from ergolab.rng import (_PIECE, STREAM_ORBIT_SEED, STREAM_ORBITS, STREAM_SPACE_AVG, _fraction,
                         pieces, raw_blocks, uniform01)
from ergolab.systems import (_FloatOrbits, _kept_array, birkhoff_sums, chunk_map, domain_points,
                             into_domain, wrap_unit)

SRC = Path(__file__).resolve().parent.parent / "src"


def space_points(sys, seed, start, count):
    """Uniform points on the domain from blocks [start, start + count) of
    the space-average stream, as srb_space_average draws them."""
    return domain_points(sys, raw_blocks(seed, STREAM_SPACE_AVG, start, count))


def test_doubling_iterate_worked_values():
    sysd = E.get_system("doubling")
    assert E.iterate(sysd, 0.3, 1) == 0.6
    assert E.iterate(sysd, 0.3, 2) == pytest.approx(0.2, abs=1e-12)
    assert E.iterate(sysd, 0.0, 5) == 0.0
    # orbit of a dyadic rational reaches the fixed point exactly
    assert E.iterate(sysd, 0.375, 3) == 0.0


def test_tent_iterate_worked_values():
    syst = E.get_system("tent")
    assert E.iterate(syst, 0.25, 1) == 0.5
    assert E.iterate(syst, 0.5, 1) == 1.0
    assert E.iterate(syst, 1.0, 1) == 0.0
    assert E.iterate(syst, 0.1, 1) == pytest.approx(0.2, abs=1e-16)


def test_cat_iterate_worked_value():
    sysc = E.get_system("cat")
    out = E.iterate(sysc, np.array([0.5, 0.5]), 1)
    assert out.tolist() == [0.5, 0.0]
    # (0,0) is fixed
    assert E.iterate(sysc, np.array([0.0, 0.0]), 7).tolist() == [0.0, 0.0]


def test_logistic_iterate_and_domain():
    sysl = E.get_system("logistic", c=-2.0)
    assert sysl.lo == -2.0 and sysl.hi == 2.0
    assert E.iterate(sysl, 0.0, 1) == -2.0
    assert E.iterate(sysl, -2.0, 1) == 2.0       # 4 - 2
    assert E.iterate(sysl, 2.0, 3) == 2.0        # fixed point
    with pytest.raises(ValueError):
        E.get_system("logistic")                 # c is required
    with pytest.raises(ValueError):
        E.get_system("logistic", c=0.25)         # right endpoint excluded
    with pytest.raises(ValueError):
        E.get_system("nosuchmap")


def test_iterate_semigroup_is_bitwise():
    # f^(j+k) = f^j o f^k exactly: iteration is the same float op sequence
    rng = np.random.default_rng(5)
    for sid, kw in (("doubling", {}), ("tent", {}), ("cat", {}),
                    ("logistic", {"c": -1.4})):
        sysm = E.get_system(sid, **kw)
        pts = rng.random((64, sysm.d))
        if sysm.domain == "interval":
            pts = sysm.lo + (sysm.hi - sysm.lo) * pts
        a = E.iterate(sysm, pts, 7)
        b = E.iterate(sysm, E.iterate(sysm, pts, 3), 4)
        assert np.array_equal(a, b)


def test_domain_violations_rejected_before_stepping():
    sysd = E.get_system("doubling")
    with pytest.raises(DomainError):
        E.iterate(sysd, 1.5, 1)
    with pytest.raises(DomainError):
        E.iterate(sysd, -0.1, 0)                 # checked even for k=0
    with pytest.raises(DomainError):
        E.iterate(sysd, np.array([0.2, 0.5, 1.0]), 1)   # torus excludes 1.0
    syst = E.get_system("tent")
    assert E.iterate(syst, 1.0, 0) == 1.0        # interval includes both ends
    with pytest.raises(DomainError):
        E.iterate(syst, 1.0000001, 1)
    sysl = E.get_system("logistic", c=-2.0)
    with pytest.raises(DomainError):
        E.iterate(sysl, 2.1, 1)
    with pytest.raises(ValueError):
        E.iterate(sysd, 0.5, -1)
    # NaN compares False with every bound, and is refused all the same
    cos1 = E.get_observable("cos1", sysd)
    for sysm, x in ((sysd, math.nan), (syst, math.nan), (sysl, math.nan),
                    (E.get_system("cat"), np.array([0.5, math.nan]))):
        with pytest.raises(DomainError, match="nan"):
            E.iterate(sysm, x, 3)
    with pytest.raises(DomainError, match="nan"):
        E.time_average(sysd, cos1, math.nan, 5)
    with pytest.raises(DomainError, match="nan"):
        E.time_average(sysd, cos1, np.array([0.25, math.nan]), 5)


def test_point_shapes_round_trip():
    sysd = E.get_system("doubling")
    sysc = E.get_system("cat")
    assert isinstance(E.iterate(sysd, 0.3, 1), float)
    flat = E.iterate(sysd, np.array([0.1, 0.2]), 1)      # two 1-d points
    assert flat.shape == (2,)
    pt = E.iterate(sysc, np.array([0.1, 0.2]), 1)        # one 2-d point
    assert pt.shape == (2,)
    batch = E.iterate(sysc, np.array([[0.1, 0.2], [0.3, 0.4]]), 1)
    assert batch.shape == (2, 2)
    with pytest.raises(ValueError):
        E.iterate(sysc, 0.3, 1)                  # scalar into a 2-d system


def test_wrap_unit_seam_snap():
    assert E.wrap_unit(2.5) == 0.5
    assert E.wrap_unit(-0.25) == 0.75
    assert E.wrap_unit(1.0) == 0.0
    # -2^-54 wraps to 1 - 2^-54 which rounds onto 1.0: must snap to 0
    assert E.wrap_unit(-(2.0 ** -54)) == 0.0
    assert E.wrap_unit(-5e-324) == 0.0            # smallest subnormal, negated
    below_one = np.nextafter(1.0, 0.0)
    assert E.wrap_unit(below_one) == below_one    # already in [0, 1): unchanged
    assert math.isnan(E.wrap_unit(float("nan")))  # NaN in, NaN out
    assert isinstance(E.wrap_unit(2.5), float)
    arr = E.wrap_unit(np.array([1.25, -0.5]))
    assert arr.tolist() == [0.25, 0.5]


def test_into_domain_wraps_or_clips_in_place():
    edges = [-5e-324, np.nextafter(1.0, 0.0), 1.0, 2.5]
    sysc = E.get_system("cat")
    pts = np.array([edges, edges[::-1]]).T.copy()
    out = into_domain(sysc, pts)
    assert out is pts
    assert out.tolist() == E.wrap_unit(np.array([edges, edges[::-1]]).T).tolist()
    assert out[:, 0].tolist() == [0.0, np.nextafter(1.0, 0.0), 0.0, 0.5]
    sysl = E.get_system("logistic", c=-1.7)
    pts = np.array([[sysl.lo - 1e-9], [-5e-324], [0.5], [sysl.hi], [sysl.hi + 2.0]])
    out = into_domain(sysl, pts)
    assert out is pts
    assert out[:, 0].tolist() == [sysl.lo, -5e-324, 0.5, sysl.hi, sysl.hi]


def _old_wrap_unit(x):
    """wrap_unit as an out-of-place expression: x - floor(x), 1.0 snapped to 0."""
    a = np.asarray(x, dtype=np.float64)
    y = a - np.floor(a)
    return np.where(y >= 1.0, 0.0, y)


def test_in_place_step_maps_equal_their_out_of_place_forms():
    # doubling steps in place and cat into a second array, which leaves its
    # input as it is; over 60 steps from random points and the domain's edge
    # points they stay bit-equal to wrap_unit(2x) and wrap_unit([2x + y,
    # x + y]), though they skip wrap_unit's snap of 1.0: a step map is fed
    # domain points only (System._step), where x - floor(x) is exact and
    # below 1.  wrap_unit, whose inputs may lie anywhere, keeps the bits of
    # its out-of-place form on edge points off the domain too
    inside = [0.0, 0.5, np.nextafter(1.0, 0.0), 2.0**-1074]
    edges = inside + [-5e-324, -(2.0 ** -54), 1.0, 2.5, np.nan, np.inf, -np.inf]
    rng = np.random.default_rng(12)
    x1 = np.concatenate([rng.random(100_000), inside])[:, None]
    grid = np.array(np.meshgrid(inside, inside)).reshape(2, -1).T
    x2 = np.vstack([rng.random((100_000, 2)), grid])
    step_doubling = E.get_system("doubling")._step
    step_cat = E.get_system("cat")._step
    with np.errstate(invalid="ignore"):
        spread = np.vstack([x2 * 3.0 - 1.5, np.array(np.meshgrid(edges, edges)).reshape(2, -1).T])
        assert E.wrap_unit(spread).tobytes() == _old_wrap_unit(spread).tobytes()
        a, b = x1.copy(), x1.copy()
        p, q = x2.copy(), x2.copy()
        for _ in range(60):
            p_in = p.copy()
            a, p_next = step_doubling(a, a), step_cat(p, np.empty_like(p))
            assert p.tobytes() == p_in.tobytes()
            p = p_next
            b = _old_wrap_unit(2.0 * b)
            q = _old_wrap_unit(np.stack([2.0 * q[:, 0] + q[:, 1], q[:, 0] + q[:, 1]], axis=1))
            assert a.tobytes() == b.tobytes()
            assert p.tobytes() == q.tobytes()
        for e in edges:
            w = E.wrap_unit(e)
            assert isinstance(w, float)
            assert np.float64(w).view(np.uint64) == _old_wrap_unit(e).view(np.uint64)
            zero_d = np.array(e)
            assert isinstance(E.wrap_unit(zero_d), float)
            assert zero_d.tobytes() == np.array(e).tobytes()     # argument unchanged


def _out_of_place_step(sysm, x):
    """The step maps as out-of-place expressions, as they were written before
    they stepped into buffers."""
    if sysm.sid == "doubling":
        return _old_wrap_unit(2.0 * x)
    if sysm.sid == "tent":
        return 1.0 - np.abs(1.0 - 2.0 * x)
    if sysm.sid == "cat":
        return _old_wrap_unit(np.stack([2.0 * x[:, 0] + x[:, 1], x[:, 0] + x[:, 1]], axis=1))
    return np.clip(x * x + sysm.params[0][1], sysm.lo, sysm.hi)


@pytest.mark.parametrize("sid,kw", [("doubling", {}), ("tent", {}), ("cat", {}),
                                    ("logistic", {"c": -1.7}), ("logistic", {"c": -2.0})])
def test_kept_buffer_steps_equal_iterate(sid, kw):
    # a walk stepping in the calling thread's kept buffers (in place in 1-d,
    # between two buffers on cat) reads, at each of 60 steps, the bits of
    # iterate and of the step map's out-of-place form; its start points and
    # what iterate handed out stay as they were
    sysm = E.get_system(sid, **kw)
    pts = space_points(sysm, seed=8, start=0, count=4096)
    start = pts.copy()
    orbits = _FloatOrbits(sysm, pts, _kept_array)
    want = pts
    for k in range(1, 61):
        orbits.advance()
        want = _out_of_place_step(sysm, want)
        got = E.iterate(sysm, pts, k)
        assert got.tobytes() == want.tobytes(), k
        assert orbits.points().tobytes() == want.tobytes(), k
        assert not np.shares_memory(got, orbits.points())
    assert pts.tobytes() == start.tobytes()


def test_float_ensembles_alive_at_once_stay_independent():
    # two logistic ensembles (float64 orbits in buffers of their own) and a
    # walk in the thread's kept buffers, stepped in turn on one thread, each
    # follow their own orbits: the points of iterate from their starts
    sysl = E.get_system("logistic", c=-1.7)
    cos1 = E.get_observable("cos1", sysl)
    ens = [E.sample_orbit_ensemble(sysl, seed, 0, 1000) for seed in (1, 2)]
    starts = [e.points().copy() for e in ens] + [space_points(sysl, 3, 0, 700)]
    walk = _FloatOrbits(sysl, starts[2], _kept_array)
    orbits = ens + [walk]
    for k in range(1, 30):
        for o in orbits:
            o.advance()
        for o, x in zip(orbits, starts):
            assert o.points().tobytes() == E.iterate(sysl, x, k).tobytes(), k
    assert not np.shares_memory(ens[0].points(), ens[1].points())
    # and so do their phases and sums, taken by one kernel in turn
    sums = [birkhoff_sums(o, terms(cos1, np.float32), [5, 9]) for o in orbits]
    for n in (5, 9):
        got = [next(s).copy() for s in sums]
        for g, x in zip(got, starts):
            ref = _FloatOrbits(sysl, E.iterate(sysl, x, 29))
            assert g.tobytes() == next(birkhoff_sums(ref, terms(cos1, np.float32), [n])).tobytes()


def test_declared_matrices_and_characters_match_the_maps():
    # the 2-d cover's closed form reads only sys.matrix and obs.character:
    # each declared matrix A must step exactly as wrap_unit(x A^T), and
    # each declared character k must evaluate as cos(2 pi x . k) to 1 ulp
    rng = np.random.default_rng(21)
    declared = {"doubling": ((2,),), "cat": ((2, 1), (1, 1))}
    for sid, kw in [("doubling", {}), ("tent", {}), ("cat", {}), ("logistic", {"c": -1.7})]:
        sysm = E.get_system(sid, **kw)
        assert sysm.matrix == declared.get(sid)
        pts = sysm.lo + (sysm.hi - sysm.lo) * rng.random((10_000, sysm.d))
        if sysm.matrix is not None:
            a = np.array(sysm.matrix, dtype=np.float64)
            assert np.array_equal(sysm._step(pts, np.empty_like(pts)), E.wrap_unit(pts @ a.T))
        for oid, okw in [("cos1", {}), ("coord", {}), ("bump", {"a": 0.1, "w": 0.1})]:
            obs = E.get_observable(oid, sysm, **okw)
            if oid != "cos1":
                assert obs.character is None
                continue
            assert obs.character == (1,) + (0,) * (sysm.d - 1)
            got = obs.fn(pts)
            want = np.cos(2.0 * math.pi * (pts @ np.array(obs.character, dtype=np.float64)))
            assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


def test_distance_torus_and_interval():
    sysd = E.get_system("doubling")
    assert E.distance(sysd, 0.1, 0.9) == pytest.approx(0.2)
    assert E.distance(sysd, 0.0, 0.5) == 0.5
    sysc = E.get_system("cat")
    d = E.distance(sysc, np.array([0.05, 0.1]), np.array([0.95, 0.3]))
    assert d == pytest.approx(math.hypot(0.1, 0.2))
    syst = E.get_system("tent")
    assert E.distance(syst, 0.0, 1.0) == 1.0
    assert E.domain_diameter(sysd) == 0.5
    assert E.domain_diameter(sysc) == pytest.approx(math.sqrt(2.0) / 2.0)
    assert E.domain_diameter(syst) == 1.0


def test_lipschitz_catalog_data():
    assert E.get_system("doubling").lip == 2.0
    assert E.get_system("tent").lip == 2.0
    # cat map: Lip = largest singular value of [[2,1],[1,1]]
    smax = float(np.linalg.svd(np.array([[2.0, 1.0], [1.0, 1.0]]),
                               compute_uv=False)[0])
    assert E.get_system("cat").lip == pytest.approx(smax, abs=1e-12)
    assert E.get_system("cat").lip == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0)
    sysl = E.get_system("logistic", c=-2.0)
    assert sysl.lip == 4.0                    # 2*beta with beta = 2
    # expansion base L = max(lip, 2): kicks in for weakly expanding members
    assert E.get_system("logistic", c=0.24).lip == pytest.approx(1.2)
    assert E.get_system("logistic", c=0.24).L == 2.0
    assert sysl.L == 4.0


@pytest.mark.parametrize("sid,kw", [("doubling", {}), ("tent", {}),
                                    ("cat", {}), ("logistic", {"c": -1.7})])
def test_empirical_lipschitz_bound(sid, kw):
    # sampled pairs never stretch by more than the advertised constant
    sysm = E.get_system(sid, **kw)
    rng = np.random.default_rng(11)
    x = rng.random((20000, sysm.d))
    off = (rng.random((20000, sysm.d)) - 0.5) * 1e-4
    if sysm.domain == "torus":
        y = E.wrap_unit(x + off)
    else:
        x = sysm.lo + (sysm.hi - sysm.lo) * x
        y = np.clip(x + off, sysm.lo, sysm.hi)
    d0 = E.distance(sysm, x, y)
    d1 = E.distance(sysm, E.iterate(sysm, x, 1), E.iterate(sysm, y, 1))
    keep = d0 > 0
    ratio = d1[keep] / d0[keep]
    assert np.max(ratio) <= sysm.lip * (1.0 + 1e-9)
    # and the constant is not wildly pessimistic
    assert np.max(ratio) >= 0.5 * sysm.lip


@pytest.mark.parametrize("sid", ["doubling", "tent", "cat"])
def test_lebesgue_invariance_pushforward(sid):
    # these maps preserve Lebesgue measure: f(uniform) stays uniform (KS test)
    sysm = E.get_system(sid)
    rng = np.random.default_rng(23)
    pts = rng.random((20000, sysm.d))
    out = np.atleast_2d(E.iterate(sysm, pts, 1))
    if sysm.d == 1:
        out = out.reshape(-1, 1)
    for j in range(sysm.d):
        p = stats.kstest(out[:, j], "uniform").pvalue
        assert p > 1e-3


def test_orbit_ensemble_defeats_dyadic_collapse():
    # float64 orbits of the doubling map die at 0 within ~53 steps ...
    sysd = E.get_system("doubling")
    ens = E.sample_orbit_ensemble(sysd, seed=3, start=0, count=2000)
    start_pts = ens.points()[:, 0]
    assert np.all(E.iterate(sysd, start_pts, 60) == 0.0)
    # ... while the fixed-point ensemble is still uniform at the same horizon
    for _ in range(60):
        ens.advance()
    pts = ens.points()[:, 0]
    assert np.all((pts >= 0.0) & (pts < 1.0))
    assert stats.kstest(pts, "uniform").pvalue > 1e-3


def test_orbit_ensemble_chunking_is_invisible():
    # sample i is a pure function of counter block i, so any chunking of the
    # index range gives bitwise-identical ensembles
    for sid in ("doubling", "tent", "cat"):
        sysm = E.get_system(sid)
        whole = E.sample_orbit_ensemble(sysm, seed=9, start=0, count=100)
        left = E.sample_orbit_ensemble(sysm, seed=9, start=0, count=37)
        right = E.sample_orbit_ensemble(sysm, seed=9, start=37, count=63)
        for _ in range(25):
            whole.advance()
            left.advance()
            right.advance()
        glued = np.vstack([left.points(), right.points()])
        assert np.array_equal(whole.points(), glued)


def test_orbit_ensemble_selected_samples_match_their_chunk():
    # an index array draws just those samples, each from its own counter block
    rows = np.array([3, 4, 40, 99, 1500, 1501, 4000])
    for sysm in (E.get_system("doubling"), E.get_system("tent"),
                 E.get_system("cat"), E.get_system("logistic", c=-2.0)):
        whole = E.sample_orbit_ensemble(sysm, seed=9, start=0, count=4011)
        picked = E.sample_orbit_ensemble(sysm, seed=9, start=10 + rows, count=rows.size)
        tail = E.sample_orbit_ensemble(sysm, seed=9, start=10, count=4001)
        for _ in range(25):
            whole.advance()
            picked.advance()
            tail.advance()
        assert np.array_equal(picked.points(), whole.points()[10 + rows])
        assert np.array_equal(picked.points(), tail.points()[rows])
    sysd = E.get_system("doubling")
    for bad, count in (([5, 5], 2), ([7, 3], 2), ([1, 2], 3), ([], 0)):
        with pytest.raises(ValueError):
            E.sample_orbit_ensemble(sysd, seed=9, start=np.array(bad, dtype=np.int64),
                                    count=count)


@pytest.mark.parametrize("sid,kw", [("doubling", {}), ("tent", {}), ("cat", {}),
                                    ("logistic", {"c": -1.7})])
def test_ensembles_drawn_in_pieces_equal_one_whole_read(sid, kw):
    # an ensemble filled piece by piece (rng.pieces) holds the samples of one
    # whole raw_blocks read of its range, handed over as one piece: points
    # and phases equal at every step up to the budget (the float64 one on
    # logistic), at counts within, at and past one piece, from a ragged
    # start; and an index draw's equal the rows it draws
    sysm = E.get_system(sid, **kw)
    budget = sysm.ensemble.horizon or int(systems.FLOAT64_BITS / math.log2(sysm.L))
    start = 5
    for count in (1, _PIECE - 1, _PIECE, 3 * _PIECE + 77):
        whole = sysm.ensemble(sysm, count, [(0, raw_blocks(2, STREAM_ORBITS, start, count))])
        drawn = E.sample_orbit_ensemble(sysm, 2, start, count)
        rows = np.unique(np.linspace(0, count - 1, 9).astype(np.int64))
        picked = E.sample_orbit_ensemble(sysm, 2, start + rows, rows.size)
        for j in range(budget):
            want, phases = whole.points().copy(), whole.points(phase=True).copy()
            assert drawn.points().tobytes() == want.tobytes(), (count, j)
            assert drawn.points(phase=True).tobytes() == phases.tobytes(), (count, j)
            assert picked.points().tobytes() == want[rows].tobytes(), (count, j)
            assert picked.points(phase=True).tobytes() == phases[rows].tobytes(), (count, j)
            for ens in (whole, drawn, picked):
                ens.advance()


def test_raw_blocks_reads_just_the_indexed_blocks():
    # an index array reads exactly those blocks, each equal to its one-block
    # read: from block 0, consecutive, across gaps past 1024, alone, far out
    for idx in ([0, 1, 2], [5, 9, 1000, 1001, 70000], [0, 3000, 6000], [4321],
                [2**40], [7, 2**40, 2**40 + 1]):
        got = raw_blocks(11, STREAM_ORBITS, np.array(idx), len(idx))
        want = np.vstack([raw_blocks(11, STREAM_ORBITS, k, 1) for k in idx])
        assert got.dtype == np.uint64 and np.array_equal(got, want)
    assert np.array_equal(raw_blocks(11, STREAM_ORBITS, np.arange(10, 20), 10),
                          raw_blocks(11, STREAM_ORBITS, 10, 10))
    # a range read is one generator built at its start: it equals the
    # indexed read up to the last block of the 64-bit counter word
    for start in (0, 2**32, 2**64 - 4):
        idx = np.arange(start, start + 4, dtype=np.uint64)
        assert np.array_equal(raw_blocks(11, STREAM_ORBITS, start, 4),
                              raw_blocks(11, STREAM_ORBITS, idx, 4))
    for start, count in ((2**64, 3), (2**64, 0), (2**64 - 2, 3)):
        with pytest.raises(ValueError, match=r"\bstart\b"):
            raw_blocks(11, STREAM_ORBITS, start, count)
    for bad, count in (([], 0), ([], 1), ([5, 5], 2), ([7, 3], 2), ([1, 2], 3),
                       ([1, 2], 1), ([-1, 2], 2), ([[1, 2]], 2)):
        with pytest.raises(ValueError):
            raw_blocks(11, STREAM_ORBITS, np.array(bad, dtype=np.int64), count)
    with pytest.raises(ValueError):
        raw_blocks(11, STREAM_ORBITS, np.array([1.0, 2.0]), 2)   # not cast to integers
    # a seed outside Philox's 64-bit key word is refused, not masked onto one inside
    for seed in (-1, 2**64, 2**64 + 11):
        with pytest.raises(ValueError, match=r"\bseed\b"):
            raw_blocks(seed, STREAM_ORBITS, 0, 1)
    assert raw_blocks(2**64 - 1, STREAM_ORBITS, 0, 1).shape == (1, 4)


def test_pieces_are_the_rows_of_one_range_read():
    # a range read in pieces hands out its rows in order, at most _PIECE at
    # a time, each piece equal to raw_blocks of the same rows: from ragged
    # starts, up to the last block of the counter word, at counts short of,
    # at and past a piece; its arguments are refused on the call, before
    # any piece is asked for
    for start in (0, 1, _PIECE - 1, _PIECE + 3, 2**40 + 5, 2**64 - 3 * _PIECE - 77):
        for count in (0, 1, _PIECE - 1, _PIECE, _PIECE + 1, 3 * _PIECE + 77):
            got = list(pieces(11, STREAM_ORBITS, start, count))
            assert [p for p, _ in got] == list(range(0, count, _PIECE))
            for p, blocks in got:
                assert blocks.dtype == np.uint64 and 1 <= len(blocks) <= _PIECE
                assert np.array_equal(blocks, raw_blocks(11, STREAM_ORBITS, start + p,
                                                         len(blocks)))
            whole = raw_blocks(11, STREAM_ORBITS, start, count)
            assert np.array_equal(np.vstack([b for _, b in got]) if got else whole, whole)
    for seed, start, count, name in ((2**64, 0, 1, "seed"), (-1, 0, 1, "seed"),
                                     (11, 2**64 - 2, 3, "start"), (11, -1, 1, "start"),
                                     (11, 1.5, 1, "start"), (11, 0, -1, "count"),
                                     (11, 0, 2.0, "count")):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            pieces(seed, STREAM_ORBITS, start, count)


def test_cat_ensemble_follows_256_bit_orbits_through_its_budget():
    # Each 128-bit sample stands for the real point whose top 128 bits it
    # drew.  Against 256-bit orbits whose low 128 bits are random (Python
    # ints), its projected points stay within one unit 2^-53 for every
    # horizon up to the budget of 54, and drift further right after.
    sysc = E.get_system("cat")
    budget = sysc.ensemble.horizon
    assert budget == 54
    count = 2000
    ens = E.sample_orbit_ensemble(sysc, seed=3, start=0, count=count)
    blocks = raw_blocks(3, STREAM_ORBITS, 0, count).tolist()
    low = np.random.default_rng(3).integers(0, 2**64, (count, 4), dtype=np.uint64).tolist()
    x = [(b[0] << 192) | (b[1] << 128) | (r[0] << 64) | r[1] for b, r in zip(blocks, low)]
    y = [(b[2] << 192) | (b[3] << 128) | (r[2] << 64) | r[3] for b, r in zip(blocks, low)]
    mask = 2**256 - 1
    gaps = []
    for _ in range(budget + 2):                 # horizons 1 .. budget + 2
        exact = np.array([[a >> 203, b >> 203] for a, b in zip(x, y)], dtype=np.float64)
        d = np.abs(ens.points() - exact * 2.0**-53)
        gaps.append(np.max(np.minimum(d, 1.0 - d)))          # torus distance
        ens.advance()
        x, y = [(2 * a + b) & mask for a, b in zip(x, y)], [(a + b) & mask for a, b in zip(x, y)]
    assert max(gaps[:budget]) <= 2.0**-53
    assert gaps[budget] > 2.0**-53


def test_tent_ensemble_points_stay_in_domain():
    syst = E.get_system("tent")
    ens = E.sample_orbit_ensemble(syst, seed=4, start=0, count=1000)
    for _ in range(131):                            # past the draw, j = 129 on
        ens.advance()
        pts = ens.points()
        assert np.all((pts >= 0.0) & (pts <= 1.0))


def test_doubling_ensemble_reads_a_128_bit_shift_at_every_offset():
    # the point after j steps is read at bit offset j of the draw; against
    # 128-bit left shifts (Python ints), float64 points are the top 53 bits,
    # at every j through the budget of 76 and past it, where zeros come in
    # at the bottom until every point is 0
    sysd = E.get_system("doubling")
    ones = 2**64 - 1
    edges = np.array([[ones, ones, 0, 0], [0, 1, 0, 0], [1 << 63, 0, 0, 0],
                      [0, 1 << 63, 0, 0]], dtype=np.uint64)
    blocks = np.vstack([edges, raw_blocks(6, STREAM_ORBITS, 0, 500)])
    ens = sysd.ensemble(sysd, len(blocks), [(0, blocks)])
    assert ens.horizon == 76
    x = [(int(hi) << 64) | int(lo) for hi, lo in blocks[:, :2].tolist()]
    for _ in range(131):                            # j = 0 .. 130
        want64 = np.array([v >> 75 for v in x], dtype=np.float64) * 2.0**-53
        got64 = ens.points()[:, 0]
        assert np.array_equal(got64, want64)
        ens.advance()
        x = [(v << 1) & (2**128 - 1) for v in x]
    assert not got64.any()


def test_tent_ensemble_follows_the_interior_point_orbit_through_its_budget():
    # a sample stands for the points inside the cylinder of its drawn 128
    # bits: against the exact tent orbit of the interior point x0 + 2^-129
    # (129-bit Python ints, x -> 2x below 1/2 and 2 - 2x from it), float64
    # points are its top 53 bits at every j through the budget of 76, with
    # edge draws: 1/2 itself, and points of the upper half whose low word is
    # 0, where 1 - x0 would carry into the top word
    syst = E.get_system("tent")
    ones = 2**64 - 1
    edges = np.array([[1 << 63, 0, 0, 0], [ones, 0, 0, 0], [ones, ones, 0, 0],
                      [(1 << 63) | 5, 0, 0, 0], [0, 1, 0, 0]], dtype=np.uint64)
    blocks = np.vstack([edges, raw_blocks(7, STREAM_ORBITS, 0, 500)])
    ens = syst.ensemble(syst, len(blocks), [(0, blocks)])
    assert ens.horizon == 76
    x = [(int(hi) << 65) | (int(lo) << 1) | 1 for hi, lo in blocks[:, :2].tolist()]
    for _ in range(76):                             # j = 0 .. 75
        want = np.array([v >> 76 for v in x], dtype=np.float64) * 2.0**-53
        assert np.array_equal(ens.points()[:, 0], want)
        ens.advance()
        x = [2 * v if v < 2**128 else 2**130 - 2 * v for v in x]


class _CountingOrbits:
    """An orbit representation that counts its advance() calls."""

    def __init__(self, orbits):
        self.orbits = orbits
        self.advances = 0

    def points(self, phase=False):
        return self.orbits.points(phase)

    def advance(self):
        self.advances += 1
        self.orbits.advance()


def _reference_sums(orbits, term, n_values):
    """Birkhoff sums by the naive loop: the term at each of n_max orbit
    points, added one by one in its own dtype, float32 or float64."""
    total, sums = None, []
    for j in range(1, max(n_values) + 1):
        vals = term(orbits).copy()
        total = vals if total is None else total + vals
        if j in n_values:
            sums.append(total.copy())
        orbits.advance()
    return sums


@pytest.mark.parametrize("sid,kw", [("doubling", {}), ("tent", {}),
                                    ("cat", {}), ("logistic", {"c": -1.7})])
def test_birkhoff_sums_equal_a_reference_loop(sid, kw):
    # one kernel for float batches and for the (fixed-point, on doubling, tent
    # and cat) sampled ensembles, on float64 points and on the float32 phases
    # of the screen: same sums as the naive loop in the terms' dtype, bit for
    # bit, n_max - 1 advances; and so on the ensembles whose step doubles
    # the phase (doubling and tent) with the doubled odd-step terms
    sysm = E.get_system(sid, **kw)
    cos1 = E.get_observable("cos1", sysm)
    pts = space_points(sysm, seed=5, start=0, count=64)
    n_values = [1, 3, 7, 20, 29]

    def ensemble():
        return E.sample_orbit_ensemble(sysm, seed=5, start=0, count=64)

    walks = [(dtype, False, make) for dtype in (np.float64, np.float32)
             for make in (lambda: _FloatOrbits(sysm, pts), ensemble)]
    if sysm.ensemble.doubles_phase:
        walks.append((np.float32, True, ensemble))
    assert len(walks) == (5 if sid in ("doubling", "tent") else 4)
    for dtype, dbl, make in walks:
        want = _reference_sums(make(), terms(cos1, dtype, dbl), n_values)
        orbits = _CountingOrbits(make())
        got = [s.copy() for s in birkhoff_sums(orbits, terms(cos1, dtype, dbl), n_values)]
        assert len(got) == len(n_values)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == dtype
            assert np.array_equal(g, w)
        assert orbits.advances == n_values[-1] - 1


class _TermRows:
    """Orbits whose term at step j is row j of a table (advance() counts j)."""

    def __init__(self, rows):
        self.rows, self.j = rows, 0

    def term(self, _orbits):
        return self.rows[self.j]

    def advance(self):
        self.j += 1


def test_float32_sums_stay_within_their_band_term():
    # worst-case terms for the float32 sum: of size sup_abs = 1 (just under,
    # so that partial sums round) with random signs, cancelling or not; at
    # every horizon up to the doubling budget of 76 the average stays within
    # term 4 of observables.float32_band, gamma_{n-1} * sup_abs, half of
    # what the band grows by from n = 1 to n, of the exact one
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    rng = np.random.default_rng(12)
    shape = (76, 20000)
    size = (1.0 - rng.integers(1, 2**23, shape) * 2.0**-24).astype(np.float32)
    rows = np.where(rng.random(shape) < 0.5, size, -size)
    walk = _TermRows(rows)
    horizons = [2, 5, 37, 64, 76]
    for k, got in zip(horizons, birkhoff_sums(walk, walk.term, horizons)):
        assert got.dtype == np.float32
        exact = rows[:k].astype(np.float64).sum(axis=0)   # 76 float32s add exactly
        err = np.abs(got - exact).max() / k
        gamma = (k - 1) * 2.0**-24 / (1.0 - (k - 1) * 2.0**-24)
        grow = float32_band(sysd, cos1, k) - float32_band(sysd, cos1, 1)
        assert grow == pytest.approx(2.0 * gamma, rel=1e-9)
        assert 0.0 < err <= gamma, (k, err, gamma)
    assert walk.j == 75


_ONES = 2**64 - 1
# draws whose phase words sit at the edges of the signed range, followed by
# counter blocks 0..19,999 of seed 9's orbit stream
_EDGE_DRAWS = np.array([[_ONES, _ONES, _ONES, _ONES], [0, 0, 0, 0], [1 << 63, 0, 1 << 63, 0],
                        [(1 << 63) - 1, _ONES, (1 << 63) - 1, _ONES],
                        [0xFFFFFF7F << 32, 0, 0xFFFFFF7F << 32, 0]], dtype=np.uint64)


def _edge_ensemble(sysm):
    blocks = np.vstack([_EDGE_DRAWS, raw_blocks(9, STREAM_ORBITS, 0, 20000)])
    return sysm.ensemble(sysm, len(blocks), [(0, blocks)])


def test_phases_equal_2pi_times_the_points():
    # points(phase=True) are the float32 phases of the points, and the
    # screen's term is their cosine, taken in place.  On a float batch
    # (logistic) they equal 2 pi times the points in float32,
    # fl(fl(2 pi) fl(x)); on the fixed-point ensembles (doubling and tent at
    # every bit offset 0..75, cat, whose phase is its x coordinate) they are
    # signed-word phases, of size at most fl(pi), within the point term of
    # observables.float32_band, 3 pi u (1 + 3u) + 2 pi 2^-32, of 2 pi x
    # (mod 2 pi), x the float64 point, whether the word's top bit is set or
    # not (edge draws included)
    u = 2.0**-24
    bound = 3.0 * math.pi * u * (1.0 + 3.0 * u) + 2.0 * math.pi * 2.0**-32
    cases = [(E.get_system("doubling"), 76), (E.get_system("tent"), 76),
             (E.get_system("cat"), 30), (E.get_system("logistic", c=-1.7), 30)]
    for sysm, steps in cases:
        cos1 = E.get_observable("cos1", sysm)
        fixed = sysm.sid != "logistic"
        ens = E.sample_orbit_ensemble(sysm, seed=9, start=0, count=20000)
        if fixed:
            ens = _edge_ensemble(sysm)
        count = ens.count if fixed else 20000
        signs = set()
        for _ in range(steps):
            x = ens.points()[:, 0].copy()
            phase = ens.points(phase=True)
            assert phase.dtype == np.float32 and phase.shape == (count,)
            if fixed:
                assert np.all(np.abs(phase) <= np.float32(math.pi))
                gap = np.remainder(phase - 2.0 * math.pi * x + math.pi, 2.0 * math.pi) - math.pi
                assert np.max(np.abs(gap)) <= bound
                signs.update(np.unique(np.sign(phase)).tolist())
            else:
                assert np.array_equal(phase, np.multiply(2.0 * math.pi, x, dtype=np.float32))
            want = np.cos(phase)
            got = terms(cos1, np.float32)(ens)
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
            ens.advance()
        if fixed:
            assert {-1.0, 1.0} <= signs


def test_float_phases_are_a_float32_multiply_bit_for_bit():
    # a float batch's phases, x_1 copied into float32 and multiplied in place
    # by fl(2 pi), are the bits of the float32 multiply of the float64 points,
    # fl(fl(x_1) fl(2 pi)), on 8192 random points of the circle, the torus
    # (x_1 a strided column) and the interval, and on edge points: those
    # whose float32 rounding rounds up to 1, subnormals, signed zeros
    rng = np.random.default_rng(31)
    edges = [0.0, -0.0, 2.0**-1074, 2.0**-150, np.nextafter(1.0, 0.0), 1.0 - 2.0**-25,
             0.5 + 2.0**-26, -np.nextafter(1.0, 0.0)]
    for sysm in (E.get_system("doubling"), E.get_system("cat"),
                 E.get_system("logistic", c=-2.0)):
        pts = sysm.lo + (sysm.hi - sysm.lo) * rng.random((8192, sysm.d))
        pts[:len(edges), 0] = edges
        for buffer in (systems._new_array, _kept_array):
            phases = _FloatOrbits(sysm, pts, buffer).points(phase=True)
            want = np.multiply(pts[:, 0], 2.0 * math.pi, dtype=np.float32)
            assert phases.dtype == np.float32
            assert phases.tobytes() == want.tobytes(), sysm.sid
            assert phases.tobytes() == (pts[:, 0].astype(np.float32)
                                        * np.float32(2.0 * math.pi)).tobytes()


def test_doubled_terms_stay_within_their_budget():
    # on the doubling and tent ensembles (edge draws included), the screen
    # with doubles takes a cosine of the phases at every even step, bit for
    # bit the plain screen's, and at every odd step fl(2 fl(c^2) - 1) of the
    # even term c, within the 57u of observables.float32_band's term 3a of
    # the float64 cosine, at every step to the budget of 76; every screened
    # deviation stays within half of band(n) of the float64 one
    u = 2.0**-24
    horizons = list(range(1, 77))
    for sid in ("doubling", "tent"):
        sysm = E.get_system(sid)
        cos1 = E.get_observable("cos1", sysm)
        walk, ref = _edge_ensemble(sysm), _edge_ensemble(sysm)
        doubled = terms(cos1, np.float32, True)
        for j in range(76):
            got = doubled(walk).copy()
            exact = terms(cos1, np.float64)(ref)
            if j % 2 == 0:
                want = np.cos(ref.points(phase=True))
                assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), (sid, j)
            else:
                assert np.array_equal(got, 2.0 * np.square(c) - 1.0), (sid, j)
                assert np.max(np.abs(got - exact)) <= 57.0 * u, (sid, j)
            c = got
            walk.advance()
            ref.advance()
        screened = deviations(_edge_ensemble(sysm), cos1, 0.0, np.float32, horizons, True)
        float64 = deviations(_edge_ensemble(sysm), cos1, 0.0, np.float64, horizons)
        for n, d32, d64 in zip(horizons, screened, float64):
            assert np.max(np.abs(d32 - d64)) <= float32_band(sysm, cos1, n) / 2.0, (sid, n)


def test_screened_walk_makes_no_per_step_temporaries():
    # after its first steps, a doubling or tent ensemble's advance() and
    # screened term (float32 phases, cosine in place, and with doubles the
    # odd steps' 2 c^2 - 1 over the cosines c) allocate nothing per step:
    # the tracemalloc peak over 16 steps stays under one (count,) float32
    # array
    count = 32768
    for sid, doubles in (("doubling", False), ("tent", False),
                         ("doubling", True), ("tent", True)):
        sysm = E.get_system(sid)
        term = terms(E.get_observable("cos1", sysm), np.float32, doubles)
        ens = E.sample_orbit_ensemble(sysm, seed=3, start=0, count=count)
        # doubled, the tent's first folded phase (and fold scratch) is at j = 2
        for _ in range(4 if doubles else 2):
            term(ens)
            ens.advance()
        tracemalloc.start()
        try:
            for _ in range(16):
                ens.advance()
                term(ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * count, (sid, doubles, peak)


def test_space_average_lebesgue_mc():
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    sa = E.srb_space_average(sysd, cos1, seed=42, samples=200000)
    assert sa.method == "lebesgue-mc"
    assert sa.sample_count == 200000
    assert abs(sa.value) <= 4.0 * sa.std_error          # true mean is 0
    coord = E.get_observable("coord", sysd)
    sb = E.srb_space_average(sysd, coord, seed=42, samples=200000)
    assert sb.value == pytest.approx(0.25, abs=4.0 * sb.std_error)


def test_space_average_custom_observable():
    # identity observable on the circle: Lebesgue mean 1/2
    sysd = E.get_system("doubling")
    obs = E.Observable("x1", lambda p: p[:, 0], lip=1.0, sup_abs=1.0)
    sa = E.srb_space_average(sysd, obs, seed=1, samples=100000)
    assert sa.value == pytest.approx(0.5, abs=4.0 * sa.std_error)


def test_space_average_logistic_orbit_vs_bessel():
    # c = -2: invariant density is 1/(pi sqrt(4 - x^2)) on [-2, 2], so
    # E[cos(2 pi X)] = J0(4 pi) -- an independent special-function oracle
    sysl = E.get_system("logistic", c=-2.0)
    cos1 = E.get_observable("cos1", sysl)
    sa = E.srb_space_average(sysl, cos1, seed=42, samples=0,
                             orbit_length=10**6, transient=10**4)
    assert sa.method == "empirical-orbit"
    assert sa.seed_point is not None
    target = float(special.j0(4.0 * math.pi))
    assert sa.value == pytest.approx(target, abs=5.0 * sa.std_error)
    # a different seed must agree within the combined error bars
    sb = E.srb_space_average(sysl, cos1, seed=7, samples=0,
                             orbit_length=10**6, transient=10**4)
    gap = abs(sa.value - sb.value)
    assert gap <= 5.0 * math.hypot(sa.std_error, sb.std_error)


def test_space_average_orbits_start_at_the_orbit_seed_blocks():
    # orbit 0 starts from block 0 of the orbit-seed stream, the one
    # recorded as seed_point
    sysl = E.get_system("logistic", c=-1.7)
    sa = E.srb_space_average(sysl, E.get_observable("cos1", sysl), seed=42, samples=0,
                             orbit_length=1000, transient=10)
    block0 = domain_points(sysl, raw_blocks(42, STREAM_ORBIT_SEED, 0, 1))
    assert sa.seed_point == float(block0[0, 0])
    assert (sa.sample_count, sa.orbit_length, sa.transient) == (1000, 1000, 10)


def test_space_average_logistic_superattracting_two_cycle():
    # at c = -1 almost every orbit falls onto the 2-cycle {0, -1} and, being
    # superattracting, reaches it exactly in float64: every orbit averages
    # cos1 to 1 and, over an even number of steps, x to -1/2
    sysl = E.get_system("logistic", c=-1.0)
    for oid, want in (("cos1", 1.0), ("coord", -0.5)):
        sa = E.srb_space_average(sysl, E.get_observable(oid, sysl), seed=42, samples=0,
                                 orbit_length=10**4, transient=10**4)
        assert (sa.value, sa.std_error) == (want, 0.0), oid


def test_space_average_of_a_2d_empirical_orbit_system():
    # an irrational rotation of the 2-torus, uniquely ergodic with Lebesgue
    # measure, declared empirical-orbit: its orbits are 2-d points
    shift = np.array([(math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(3.0) - 1.0])
    rot = E.System("rotation", 2, "torus", 0.0, 1.0, 1.0, "empirical-orbit",
                   _step=lambda p, out: wrap_unit(p + shift))
    sa = E.srb_space_average(rot, E.get_observable("cos1", rot), seed=3, samples=0,
                             orbit_length=10**5, transient=100)
    assert sa.method == "empirical-orbit"
    assert abs(sa.value) < 1e-4
    sb = E.srb_space_average(rot, E.get_observable("coord", rot), seed=3, samples=0,
                             orbit_length=10**5, transient=100)
    assert abs(sb.value - 0.25) < 1e-4
    block0 = domain_points(rot, raw_blocks(3, STREAM_ORBIT_SEED, 0, 1))
    assert sa.seed_point == tuple(block0[0])


@pytest.mark.parametrize("sid,kw", [("doubling", {}), ("logistic", {"c": -1.7})])
@pytest.mark.parametrize("name", ["transient", "orbit_length", "samples"])
def test_space_average_refuses_a_negative_count_by_name(sid, kw, name):
    # a negative transient failed on logistic only inside iterate, naming
    # no field, and passed on doubling, which does not use it
    sysm = E.get_system(sid, **kw)
    counts = {"samples": 0 if sysm.srb_kind != "lebesgue" else 1000,
              "orbit_length": 1000, "transient": 10}
    counts[name] = -7
    with pytest.raises(ValueError, match=rf"^{name} must be >= 0"):
        E.srb_space_average(sysm, E.get_observable("cos1", sysm), seed=1, **counts)


def test_space_average_is_seed_deterministic():
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    a = E.srb_space_average(sysd, cos1, seed=10, samples=50000)
    b = E.srb_space_average(sysd, cos1, seed=10, samples=50000)
    c = E.srb_space_average(sysd, cos1, seed=11, samples=50000)
    assert a.value == b.value
    assert a.value != c.value


@pytest.mark.parametrize("sid", ["doubling", "cat"])
@pytest.mark.parametrize("oid,kw", [("cos1", {}), ("coord", {}), ("bump", {"a": 0.2, "w": 0.1})])
def test_space_average_pieces_and_threads_keep_every_bit(sid, oid, kw):
    # the reference is one observable call per summation chunk of _CHUNK
    # samples, its sum and sum of squares folded in order; the pieces of
    # 2^13 samples and the thread count may change no bit of the value or
    # its standard error, with pieces cut short, one sample past a piece or
    # chunk, and several chunks claimed unevenly by the threads
    sysm = E.get_system(sid)
    obs = E.get_observable(oid, sysm, **kw)
    for samples in (2, 8191, 8193, 65536, 65537, 100000, 4 * _CHUNK + 8193):
        sums = []
        for s in range(0, samples, _CHUNK):
            v = obs.fn(space_points(sysm, 5, s, min(_CHUNK, samples - s)))
            sums.append((float(np.sum(v)), float(np.sum(v * v))))
        want = tuple(x.hex() for x in _mean_and_error(sums, samples))
        for threads in (1, 2, 3, 4):
            sa = E.srb_space_average(sysm, obs, seed=5, samples=samples, threads=threads)
            assert (sa.value.hex(), sa.std_error.hex()) == want, (samples, threads)


def test_space_average_chunks_in_any_order_keep_every_bit(monkeypatch):
    # each chunk returns its own sums, and they are folded in chunk order:
    # running the starts last to first changes no bit
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    want = E.srb_space_average(sysd, cos1, seed=3, samples=3 * _CHUNK + 5)

    ran = []

    def reversed_map(fn, starts, threads):
        ran.extend(reversed(list(starts)))
        return [fn(s) for s in ran][::-1]

    monkeypatch.setattr(observables, "chunk_map", reversed_map)
    got = E.srb_space_average(sysd, cos1, seed=3, samples=3 * _CHUNK + 5)
    assert ran == [3 * _CHUNK, 2 * _CHUNK, _CHUNK, 0]
    assert (got.value.hex(), got.std_error.hex()) == (want.value.hex(), want.std_error.hex())


def test_uniform01_and_fraction_convert_words_bit_for_bit():
    # the top 53 bits, truncated, times 2^-53: 2^11 - 1 is below the first
    # unit, 2^11 is one unit, 2^63 is 1/2 and 2^64 - 1 the largest double below 1
    words = np.array([0, 2**11 - 1, 2**11, 2**63, 2**64 - 1], dtype=np.uint64)
    want = np.array([0.0, 0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
    assert uniform01(words).tobytes() == want.tobytes()
    out = np.empty(5)
    assert _fraction(words, np.empty(5, np.uint64), out).tobytes() == want.tobytes()
    assert uniform01(words.reshape(5, 1)[:, 0]).tobytes() == want.tobytes()


def test_uniform01_converts_strided_words():
    # a strided column and an (N, d) slice of a block array, as
    # domain_points and the flow and lemma draws read them, give the
    # conversion of a contiguous copy, shaped like the view
    blocks = raw_blocks(7, STREAM_ORBITS, 0, 1000)
    for view in (blocks[:, 2], blocks[:, :2], blocks[::3, 1:], blocks[:, 0:1]):
        assert not view.flags.c_contiguous
        got = uniform01(view)
        want = uniform01(np.ascontiguousarray(view))
        assert got.shape == view.shape and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got, (view >> np.uint64(11)).astype(np.float64) * 2.0**-53)


def test_chunk_map_returns_results_in_order():
    def square(s):
        time.sleep(0.001 * (s % 3))             # calls finish out of order
        return s * s
    for threads in (1, 2, 3, 8):
        assert chunk_map(square, range(20), threads) == [s * s for s in range(20)]
        assert chunk_map(square, [4], threads) == [16]
        assert chunk_map(square, [], threads) == []


def test_chunk_map_calls_each_start_once_under_contention():
    # more threads than cores, switching as often as the interpreter allows:
    # a start claimed twice, or never, would show in the calls
    calls = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            calls.clear()
            assert chunk_map(lambda s: calls.append(s) or -s, range(500), 8) == \
                [-s for s in range(500)]
            assert sorted(calls) == list(range(500))
    finally:
        sys.setswitchinterval(interval)


def test_chunk_map_raises_the_first_error_in_order():
    # start 7 fails last in time, start 12 first; the loop raises 7's, and
    # so does the pool, once every claimed call has returned
    calls = []

    def fn(s):
        calls.append(s)
        if s == 7:
            time.sleep(0.05)
            raise ValueError("start 7")
        if s == 12:
            raise KeyError("start 12")
        time.sleep(0.002)
        return s

    for threads in (1, 2, 4):
        calls.clear()
        with pytest.raises(ValueError, match="start 7"):
            chunk_map(fn, range(40), threads)
        assert set(range(8)) <= set(calls) and 39 not in calls, threads


@pytest.mark.parametrize("threads", [0, -3, True, 2.0, 2.5, "2"])
def test_chunk_map_refuses_a_bad_thread_count_by_name(threads):
    with pytest.raises(ValueError, match=r"^threads must be"):
        chunk_map(abs, range(3), threads)


def test_chunk_map_keeps_one_pool():
    # the helpers of every call are threads of one kept pool, alive after
    # the calls return, and the pool object stays the same
    helpers = set()

    def fn(s):
        time.sleep(0.002)
        helpers.add(threading.current_thread())
        return s

    for _ in range(3):
        chunk_map(fn, range(8), 2)
    pool = systems._pool
    chunk_map(fn, range(8), 2)
    assert systems._pool is pool
    helpers.discard(threading.current_thread())
    assert helpers and all(t.is_alive() for t in helpers)


def test_chunk_map_starts_no_idle_workers():
    # two starts at threads=8 take the calling thread and one worker, so the
    # process's pool is made with one worker, not seven
    proc = _run_python(
        "from ergolab import systems\n"
        "assert systems.chunk_map(abs, range(-1, 1), 8) == [1, 0]\n"
        "print(systems._pool[1])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def _run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_a_one_thread_run_loads_no_thread_pool():
    # concurrent.futures loads logging; only a call at threads > 1 needs it
    proc = _run_python(
        "import sys, ergolab as E\n"
        "cfg = E.ExperimentConfig(system_id='cat', alphas=(0.4,), n_min=8, n_max=16,\n"
        "                         n_stride=4, sample_count=2000, space_samples=100000,\n"
        "                         cover_n_min=1, cover_n_max=3, lemma_pairs=0)\n"
        "E.run_pipeline(cfg, threads=1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'logging')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_chunk_map_calls_nest():
    # a worker running an outer call's fn makes an inner call: the inner
    # helper, queued behind that worker, must not be waited on
    proc = _run_python(
        "from ergolab.systems import chunk_map\n"
        "inner = lambda s: chunk_map(abs, range(-s, s), 2)\n"
        "print(chunk_map(inner, range(1, 9), 2) == [inner(s) for s in range(1, 9)])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform does not fork")
def test_a_forked_child_makes_its_own_pool():
    # a child forked after a threads=2 call holds a copy of the pool without
    # its worker; its own threads=2 call must not wait on that worker
    proc = _run_python(
        "import os, signal\n"
        "from ergolab.systems import chunk_map\n"
        "want = [abs(s) for s in range(-50, 50)]\n"
        "assert chunk_map(abs, range(-50, 50), 2) == want\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(20)\n"
        "    os._exit(0 if chunk_map(abs, range(-50, 50), 2) == want else 3)\n"
        "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
