"""Observable catalog, time averages, deviations, and the continuity modulus."""

import math

import numpy as np
import pytest

import ergolab as E
from ergolab.dimension import _hits
from ergolab.observables import deviation, deviations, float32_band, undecided
from ergolab.oracle import DIGIT, DIGIT_MEAN
from ergolab.rng import STREAM_SPACE_AVG, raw_blocks
from ergolab.systems import _FloatOrbits, domain_points


def space_points(sys, seed, start, count):
    """Uniform points on the domain from blocks [start, start + count) of
    the space-average stream, as srb_space_average draws them."""
    return domain_points(sys, raw_blocks(seed, STREAM_SPACE_AVG, start, count))


def batch(*xs):
    return np.array(xs, dtype=float).reshape(len(xs), -1)


def test_cos1_values_and_data():
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    vals = cos1.fn(batch(0.0, 0.25, 0.5))
    assert vals[0] == 1.0
    assert vals[1] == pytest.approx(0.0, abs=1e-15)
    assert vals[2] == -1.0
    assert cos1.lip == pytest.approx(2.0 * math.pi)
    assert cos1.sup_abs == 1.0


def test_coord_is_sawtooth_on_torus_identity_on_interval():
    sysd = E.get_system("doubling")
    saw = E.get_observable("coord", sysd)
    assert saw.fn(batch(0.0, 0.25, 0.5, 0.75)).tolist() == [0.0, 0.25, 0.5, 0.25]
    assert saw.lip == 1.0 and saw.sup_abs == 0.5
    sysl = E.get_system("logistic", c=-2.0)
    ident = E.get_observable("coord", sysl)
    assert ident.fn(batch(-1.5, 2.0)).tolist() == [-1.5, 2.0]
    assert ident.sup_abs == 2.0


def test_bump_profile():
    sysd = E.get_system("doubling")
    bump = E.get_observable("bump", sysd, a=0.1, w=0.2)
    # plateau of width 0.2 around x=1/2, ramps of length 0.1 on both sides
    vals = bump.fn(batch(0.5, 0.6, 0.65, 0.7, 0.35, 0.9))
    assert vals[0] == 1.0
    assert vals[1] == 1.0                       # plateau edge
    assert vals[2] == pytest.approx(0.5)        # halfway down the ramp
    assert vals[3] == pytest.approx(0.0)        # ramp foot
    assert vals[4] == pytest.approx(0.5)        # symmetric side
    assert vals[5] == 0.0
    assert bump.lip == pytest.approx(10.0)
    with pytest.raises(ValueError):
        E.get_observable("bump", sysd, a=0.0, w=0.1)
    with pytest.raises(ValueError):
        E.get_observable("bump", sysd, a=0.1, w=-0.2)
    with pytest.raises(ValueError):
        E.get_observable("spike", sysd)


@pytest.mark.parametrize("oid,kw", [("cos1", {}), ("coord", {}),
                                    ("bump", {"a": 0.05, "w": 0.1})])
def test_observable_regularity_on_samples(oid, kw):
    # |phi| <= sup_abs and |phi(x)-phi(y)| <= lip * dist(x, y) on random pairs
    sysd = E.get_system("doubling")
    obs = E.get_observable(oid, sysd, **kw)
    rng = np.random.default_rng(2)
    x = rng.random((20000, 1))
    y = E.wrap_unit(x + (rng.random((20000, 1)) - 0.5) * 0.01)
    assert np.max(np.abs(obs.fn(x))) <= obs.sup_abs + 1e-12
    gap = np.abs(obs.fn(x) - obs.fn(y))
    assert np.all(gap <= obs.lip * E.distance(sysd, x, y) * (1.0 + 1e-9) + 1e-15)


def test_time_average_worked_values():
    sysd = E.get_system("doubling")
    obs_x = E.Observable("x1", lambda p: p[:, 0], lip=1.0, sup_abs=1.0)
    # orbit of 1/3 is {1/3, 2/3, 1/3, ...}: two-step average is 1/2
    assert E.time_average(sysd, obs_x, 1.0 / 3.0, 2) == pytest.approx(0.5, abs=1e-12)
    saw = E.get_observable("coord", sysd)
    # x = 0 is fixed and the sawtooth vanishes there
    for n in (1, 5, 40):
        assert E.time_average(sysd, saw, 0.0, n) == 0.0
    syst = E.get_system("tent")
    # 2/3 is the tent fixed point
    assert E.time_average(syst, obs_x, 2.0 / 3.0, 10) == pytest.approx(2.0 / 3.0, abs=1e-13)
    # an empty orbit, which averaged to -inf, is refused
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            E.time_average(sysd, obs_x, 0.3, n)
    # a horizon is a step count: 2.5 is refused, a numpy integer taken
    with pytest.raises(ValueError, match="n must be an integer"):
        E.time_average(sysd, obs_x, 0.3, 2.5)
    assert E.time_average(sysd, obs_x, 0.3, np.int64(3)) == E.time_average(sysd, obs_x, 0.3, 3)


def test_time_average_stays_in_observable_range():
    sysc = E.get_system("cat")
    cos1 = E.get_observable("cos1", sysc)
    rng = np.random.default_rng(8)
    pts = rng.random((500, 2))
    avg = E.time_average(sysc, cos1, pts, 37)
    assert np.all(avg <= 1.0) and np.all(avg >= -1.0)


def test_time_average_telescopes():
    # (n+m) avg_{n+m}(x) = n avg_n(x) + m avg_m(f^n x)
    rng = np.random.default_rng(13)
    for sid, kw in (("doubling", {}), ("cat", {}), ("logistic", {"c": -1.9})):
        sysm = E.get_system(sid, **kw)
        obs = E.get_observable("cos1", sysm)
        pts = rng.random((200, sysm.d))
        if sysm.domain == "interval":
            pts = sysm.lo + (sysm.hi - sysm.lo) * pts
        n, m = 11, 7
        lhs = (n + m) * E.time_average(sysm, obs, pts, n + m)
        rhs = n * E.time_average(sysm, obs, pts, n) \
            + m * E.time_average(sysm, obs, E.iterate(sysm, pts, n), m)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_deviation_worked_values():
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    assert deviation(sysd, cos1, 0.0, 0.0, 1) == 1.0
    # avg over {1/3, 2/3} of cos is -1/2 each: deviation from 0 is 1/2
    assert deviation(sysd, cos1, 0.0, 1.0 / 3.0, 2) == pytest.approx(0.5, abs=1e-12)
    const = E.Observable("one", lambda p: np.ones(p.shape[0]), lip=0.0, sup_abs=1.0)
    assert deviation(sysd, const, 1.0, 0.37, 25) == 0.0
    arr = deviation(sysd, cos1, 0.0, np.array([0.0, 0.25]), 1)
    assert arr.shape == (2,)


@pytest.mark.parametrize("sid,oid", [("doubling", "cos1"), ("cat", "cos1"), ("tent", "coord")])
def test_deviations_walk_equals_deviation(sid, oid):
    # the one deviation walk of ladders, covers and the ball lemma: on float64
    # points it equals deviation at every horizon bit for bit, and cos1's
    # screened float32 walk, float32 throughout, stays within each horizon's
    # float32_band of those values
    sysm = E.get_system(sid)
    obs = E.get_observable(oid, sysm)
    pts = space_points(sysm, seed=4, start=0, count=4096)
    horizons = (1, 4, 9)
    want = [deviation(sysm, obs, 0.1, pts, n) for n in horizons]
    walk = deviations(_FloatOrbits(sysm, pts), obs, 0.1, np.float64, horizons)
    for w, got in zip(want, walk, strict=True):
        assert np.array_equal(got, w)
    if oid == "cos1":
        walk = deviations(_FloatOrbits(sysm, pts), obs, 0.1, np.float32, horizons)
        for n, w, got in zip(horizons, want, walk, strict=True):
            assert got.dtype == np.float32
            assert np.max(np.abs(got - w)) <= float32_band(sysm, obs, n)


def test_modulus_delta_values_and_guards():
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    got = E.modulus_delta_for(sysd, cos1, 0.4)
    assert got == pytest.approx(0.4 / (4.0 * math.pi) * (1.0 - 1e-6), rel=1e-12)
    # huge alpha: the domain diameter caps the radius
    assert E.modulus_delta_for(sysd, cos1, 100.0) == E.domain_diameter(sysd)
    const = E.Observable("one", lambda p: np.ones(p.shape[0]), lip=0.0, sup_abs=1.0)
    assert E.modulus_delta_for(sysd, const, 0.1) == E.domain_diameter(sysd)
    with pytest.raises(ValueError):
        E.modulus_delta(cos1, 0.0, 1.0)
    with pytest.raises(ValueError):
        E.modulus_delta(DIGIT, 0.3, 1.0)         # no Lipschitz bound


def test_modulus_delta_does_what_it_promises():
    # within distance delta the observable moves by strictly less than alpha/2
    rng = np.random.default_rng(3)
    sysd = E.get_system("doubling")
    for oid, kw in (("cos1", {}), ("bump", {"a": 0.2, "w": 0.0})):
        obs = E.get_observable(oid, sysd, **kw)
        alpha = 0.4
        delta = E.modulus_delta_for(sysd, obs, alpha)
        x = rng.random((20000, 1))
        y = E.wrap_unit(x + (2.0 * rng.random((20000, 1)) - 1.0) * delta)
        gap = np.abs(obs.fn(x) - obs.fn(y))
        assert np.max(gap) < alpha / 2.0


def test_undecided_marks_the_half_open_band_around_a_threshold():
    # t - band is undecided, t + band is decided (it compares >= t as every
    # value within band of it does) and counted; the dyadic values keep
    # t +- band exact
    t, band = 0.375, 0.125
    below, above = np.nextafter(t - band, 0.0), np.nextafter(t + band, 0.0)
    dev = np.array([0.0, below, t - band, t, above, t + band, 1.0])
    hit, count, rows = undecided(dev, band, t)
    assert count == 2 and rows.tolist() == [2, 3, 4]
    assert hit.tolist() == [False] * 5 + [True] * 2


def test_undecided_mask_and_count_are_the_comparison_at_t_plus_band():
    # on float32 deviations, as the screen hands them over, at thresholds
    # with and without rows in their band
    dev = np.random.default_rng(1).random(4000).astype(np.float32)
    for t, band in [(0.5, 1e-3), (0.25, 2.0**-20), (0.9, 0.0), (2.0, 0.1)]:
        hit, count, rows = undecided(dev, band, t)
        want = dev >= t + band
        assert hit.dtype == bool and np.array_equal(hit, want)
        assert count == np.count_nonzero(want)
        assert np.array_equal(rows, np.flatnonzero((dev >= t - band) & ~want))


def test_undecided_with_band_0_marks_nothing_even_on_exact_ties():
    # digit deviations |k/n - 1/2| are exact dyadic values, so thresholds set
    # to them are met with equality by many samples; band 0 counts them all
    sysd = E.get_system("doubling")
    pts = E.sample_orbit_ensemble(sysd, seed=4, start=0, count=4096).points()
    dev = deviation(sysd, DIGIT, DIGIT_MEAN, pts, 8)
    ties = tuple(np.unique(dev))
    assert len(ties) == 5 and all(np.count_nonzero(dev == t) > 1 for t in ties)
    for t in ties:
        hit, count, rows = undecided(dev, 0.0, t)
        assert count == np.count_nonzero(dev >= t) and rows.size == 0
        assert np.array_equal(hit, dev >= t)

    def no_recount(rows):
        raise AssertionError(f"band 0 recounted rows {rows}")

    masks = _hits(dev, 0.0, ties, no_recount)
    assert np.array_equal(masks, [dev >= t for t in ties])


def test_undecided_rows_per_threshold_and_their_hits():
    # bands [0.1875, 0.3125), [0.6875, 0.8125) and [0.75, 0.875) on a dyadic
    # grid, each counted from its top; a band between grid points holds no row
    dev = np.arange(65) / 64.0
    thresholds = (0.25, 0.75, 0.8125)
    got = [undecided(dev, 1.0 / 16.0, t) for t in thresholds]
    assert [count for _, count, _ in got] == [45, 13, 9]
    assert [rows.tolist() for *_, rows in got] == [list(range(12, 20)), list(range(44, 52)),
                                                  list(range(48, 56))]
    _, count, rows = undecided(dev, 1.0 / 256.0, 0.5 + 1.0 / 128.0)
    assert count == 32 and rows.size == 0
    # _hits decides each band's rows, and those only, by the exact
    # deviations: here dev moved by +-1/128 (inside the band), alternately.
    # A repeated threshold is decided once and shares its mask.
    exact = dev + np.where(np.arange(65) % 2, 1.0, -1.0) / 128.0
    asked = []

    def recount(rows):
        asked.append(rows.tolist())
        return exact[rows]

    masks = _hits(dev, 1.0 / 16.0, thresholds + (0.25,), recount)
    assert asked == [rows.tolist() for *_, rows in got]
    assert np.array_equal(masks, [exact >= t for t in thresholds + (0.25,)])
    assert masks[3] is masks[0]
