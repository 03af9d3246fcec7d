"""Dimension machinery: the d0 bound, ball lemma, cover ladders, box counting,
and the exact digit-frequency benchmark."""

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import ergolab as E
from ergolab import dimension
from ergolab.dimension import (_POINT_CHUNK, _character_coefficients, _children_1d,
                               _closed_form_hits, _col_factor, _cover_level_1d, _cover_level_2d,
                               _grid_2d, _grid_cells, _grid_points, _row_factor, _walk_hits,
                               closed_form_band)
from ergolab.observables import deviation, deviations, float32_band
from ergolab.oracle import DIGIT
from ergolab.rng import _PIECE, STREAM_LEMMA_POINTS, WORDS_PER_BLOCK, raw_blocks
from ergolab.systems import _FloatOrbits, domain_points
from ergolab.errors import GridBudgetError, RateNotEstablishedError


BOUND = E.RateBound(0.6, 0.25 * math.log(2.0), 0.5, 0.75, None)
BOX = E.BoxDimension(0.9, 0.8, 1.0)


@pytest.mark.parametrize("arg,error,call", [
    ("phibar", ValueError,
     lambda s, o: E.build_deviation_ladders(s, o, math.nan, [0.3], [4, 8], 1000, 1)),
    ("alphas", ValueError,
     lambda s, o: E.build_deviation_ladders(s, o, 0.0, [0.3, math.nan], [4, 8], 1000, 1)),
    ("alpha", ValueError, lambda s, o: E.build_cover_ladder(s, o, 0.0, math.nan, 0.01, 2, 4)),
    ("phibar", ValueError, lambda s, o: E.build_cover_ladder(s, o, math.nan, 0.3, 0.01, 2, 4)),
    ("delta", ValueError, lambda s, o: E.verify_ball_lemma(s, o, 0.0, 0.3, math.nan, 4, 10, 1)),
    ("alpha", ValueError, lambda s, o: E.verify_ball_lemma(s, o, 0.0, math.nan, 0.01, 4, 10, 1)),
    ("phibar", ValueError, lambda s, o: E.verify_ball_lemma(s, o, math.nan, 0.3, 0.01, 4, 10, 1)),
    ("dprimes", ValueError,
     lambda s, o: E.build_cover_ladder(s, o, 0.0, 0.3, 0.01, 2, 4, dprimes=(0.5, math.nan))),
    ("alpha", ValueError, lambda s, o: E.exact_deviation_measure_digit(math.nan, 8)),
    ("alpha", ValueError, lambda s, o: E.exact_digit_ladder(math.nan, [4, 8])),
    ("h", RateNotEstablishedError, lambda s, o: E.dimension_upper_bound(1, 2.0, math.nan)),
    ("L", ValueError, lambda s, o: E.dimension_upper_bound(1, math.nan, 0.1)),
    ("alpha", ValueError, lambda s, o: E.modulus_delta(o, math.nan, 0.5)),
    ("counts", ValueError,
     lambda s, o: E.box_counting_dimension([1.0, 0.1, 0.01, 0.001], [1, 2, math.nan, 8])),
    ("alpha", ValueError, lambda s, o: E.cramer_bernoulli(math.nan)),
    ("dprime", ValueError, lambda s, o: E.dprime_volume_series(
        E.CoverLadder("doubling", "cos1", 0.0, 0.5, 0.1, 2.0, (),
                      (E.CoverEntry(1, 0.25, 2, ()), E.CoverEntry(2, 0.0625, 4, ())), 0),
        math.nan)),
    ("n", ValueError, lambda s, o: E.time_average(s, o, 0.1, 2.5)),
    ("k", ValueError, lambda s, o: E.iterate(s, 0.3, 2.5)),
    ("n_values", ValueError,
     lambda s, o: E.build_deviation_ladders(s, o, 0.0, [0.3], [5.5, 8], 1000, 1)),
    ("n", ValueError, lambda s, o: E.verify_ball_lemma(s, o, 0.0, 0.3, 0.01, 5.5, 10, 1)),
    ("delta", ValueError, lambda s, o: E.build_cover_ladder(s, o, 0.0, -0.1, -0.1, 1, 3)),
    ("delta", ValueError, lambda s, o: E.build_cover_ladder(s, o, 0.0, 0.0, 0.0, 1, 3)),
    ("delta", ValueError, lambda s, o: E.build_cover_ladder(s, o, 0.0, 0.0, math.nan, 1, 3)),
    ("delta", ValueError, lambda s, o: E.build_cover_ladder(
        E.get_system("cat"), o, 0.0, 0.0, -0.3, 1, 2)),
    ("delta", ValueError, lambda s, o: E.build_cover_ladder(s, o, 0.0, 0.0, math.inf, 1, 3)),
    ("delta", ValueError, lambda s, o: E.verify_ball_lemma(s, o, 0.0, 0.3, math.inf, 4, 10, 1)),
    ("orbit_length", ValueError, lambda s, o: E.srb_space_average(
        E.get_system("logistic", c=-1.7), o, 1, samples=0, orbit_length=1000.5)),
    ("counts", ValueError,
     lambda s, o: E.box_counting_dimension([1.0, 0.1, 0.01, 0.001], [1, 2, math.inf, 8])),
    ("scales", ValueError,
     lambda s, o: E.box_counting_dimension([math.inf, 0.1, 0.01, 0.001], [1, 2, 4, 8])),
    ("n_lo", ValueError, lambda s, o: E.build_cover_ladder(s, o, 0.0, 0.3, 0.01, 2.5, 4)),
    ("n_hi", ValueError, lambda s, o: E.build_cover_ladder(s, o, 0.0, 0.3, 0.01, 2, 4.0)),
    ("sample_count", ValueError,
     lambda s, o: E.build_deviation_ladders(s, o, 0.0, [0.3], [4, 8], 1000.5, 1)),
    ("pair_count", ValueError, lambda s, o: E.verify_ball_lemma(s, o, 0.0, 0.3, 0.01, 4, 10.5, 1)),
    ("candidate_factor", ValueError, lambda s, o: E.verify_ball_lemma(
        s, o, 0.0, 0.3, 0.01, 4, 10, 1, candidate_factor=2.5)),
    ("candidate_factor", ValueError, lambda s, o: E.verify_ball_lemma(
        s, o, 0.0, 0.3, 0.01, 4, 10, 1, candidate_factor=0)),
    ("candidate_factor", ValueError, lambda s, o: E.verify_ball_lemma(
        s, o, 0.0, 0.3, 0.01, 4, 10, 1, candidate_factor=-3)),
    ("n_values", ValueError, lambda s, o: E.exact_digit_ladder(0.1, [2.5, 4])),
    ("n_values", ValueError, lambda s, o: E.exact_digit_ladder(0.1, [0, 4])),
    ("n_values", ValueError, lambda s, o: E.exact_digit_ladder(0.1, [8, 4])),
    ("n_values", ValueError, lambda s, o: E.exact_digit_ladder(0.1, [4, 8, 8])),
    ("n", ValueError, lambda s, o: E.exact_deviation_measure_digit(0.1, 2.5)),
    ("start", ValueError, lambda s, o: raw_blocks(1, 1, 1.999, 3)),
    ("count", ValueError, lambda s, o: raw_blocks(1, 1, 1, 3.0)),
    ("start", ValueError, lambda s, o: E.sample_orbit_ensemble(s, 1, 2.7, 3)),
    ("count", ValueError, lambda s, o: E.sample_orbit_ensemble(s, 1, 0, 14.0)),
    ("seed", ValueError, lambda s, o: E.verify_ball_lemma(s, o, 0.0, 0.4, 0.01, 4, 10, 1.5)),
    ("seed", ValueError, lambda s, o: raw_blocks(True, 1, 0, 3)),
    ("n_values", ValueError,
     lambda s, o: E.build_deviation_ladders(s, o, 0.0, [0.3], [True, 4], 1000, 1)),
    ("n", ValueError, lambda s, o: E.verify_ball_lemma(s, o, 0.0, 0.3, 0.01, True, 10, 1)),
    ("k", ValueError, lambda s, o: E.iterate(s, 0.3, True)),
    ("n", ValueError, lambda s, o: E.time_average(s, o, 0.1, True)),
    ("threads", ValueError,
     lambda s, o: E.build_cover_ladder(s, o, 0.0, 0.3, 0.01, 2, 4, threads=2.5)),
    ("threads", ValueError,
     lambda s, o: E.build_cover_ladder(s, o, 0.0, 0.3, 0.01, 2, 4, threads="2")),
    ("threads", ValueError, lambda s, o: E.srb_space_average(s, o, 1, samples=1000, threads=0)),
    ("phibar", ValueError, lambda s, o: E.bound_verdict(o, math.nan, BOUND, BOX, 0.05)),
    ("slack", ValueError, lambda s, o: E.bound_verdict(o, 0.0, BOUND, BOX, math.nan)),
    ("slack", ValueError, lambda s, o: E.bound_verdict(o, 0.0, BOUND, BOX, -0.05)),
    ("alpha", ValueError, lambda s, o: E.rate_bound(s, {}, math.nan)),
    ("phibar", ValueError, lambda s, o: deviation(s, o, math.nan, 0.3, 4)),
    ("phibar", ValueError, lambda s, o: deviation(s, o, math.inf, 0.3, 4)),
    ("budget", ValueError,
     lambda s, o: E.build_cover_ladder(s, o, 0.0, 0.3, 0.01, 2, 4, budget=math.nan)),
    ("budget", ValueError,
     lambda s, o: E.build_cover_ladder(s, o, 0.0, 0.3, 0.01, 2, 4, budget=True)),
    ("c", E.ParameterError, lambda s, o: E.get_system("logistic", c=False)),
    ("a", E.ParameterError, lambda s, o: E.get_observable("bump", s, a=True, w=0.1)),
    ("d", ValueError, lambda s, o: E.dimension_upper_bound(1.5, 2.0, 0.1)),
    ("n_values", ValueError,
     lambda s, o: E.build_deviation_ladders(s, o, 0.0, [0.3], [0, 4], 1000, 1)),
    ("alpha", ValueError, lambda s, o: E.exact_digit_ladder(math.nan, [])),
    ("alpha", ValueError, lambda s, o: E.cramer_bernoulli(10**400)),
], ids=["ladders-phibar", "ladders-alphas", "cover-alpha", "cover-phibar", "lemma-delta",
        "lemma-alpha", "lemma-phibar", "cover-dprimes", "digit-alpha", "digit-ladder-alpha",
        "bound-h", "bound-L", "modulus-alpha", "box-counts", "bernoulli-alpha",
        "volume-dprime", "time-average-n", "iterate-k", "ladders-n_values", "lemma-n",
        "cover-delta-negative", "cover-delta-zero", "cover-delta-nan", "cover-delta-cat",
        "cover-delta-inf", "lemma-delta-inf", "space-average-orbit_length", "box-counts-inf",
        "box-scales-inf", "cover-n_lo", "cover-n_hi", "ladders-sample_count",
        "lemma-pair_count", "lemma-candidate_factor", "lemma-candidate_factor-0",
        "lemma-candidate_factor-negative", "digit-ladder-n_values", "digit-ladder-n_values-0",
        "digit-ladder-n_values-decreasing", "digit-ladder-n_values-repeated", "digit-n",
        "raw_blocks-start", "raw_blocks-count",
        "ensemble-start", "ensemble-count", "lemma-seed", "raw_blocks-seed-bool",
        "ladders-n_values-bool", "lemma-n-bool", "iterate-k-bool", "time-average-n-bool",
        "cover-threads-float", "cover-threads-str", "space-average-threads-0",
        "verdict-phibar", "verdict-slack-nan", "verdict-slack-negative", "rate-bound-alpha",
        "deviation-phibar-nan", "deviation-phibar-inf", "cover-budget-nan", "cover-budget-bool",
        "logistic-c-bool", "bump-a-bool", "bound-d-float", "ladders-n_values-0",
        "digit-ladder-alpha-empty", "bernoulli-alpha-huge"])
def test_nan_inputs_are_refused_by_name(arg, error, call):
    # each of these read a NaN as a number: measures and cards of 0, a lemma
    # with no violation or with no candidate accepted, NaN cover volumes, a
    # NaN bound, rate, volume series or dimension, or an error that names
    # nothing.  So did a horizon that is no integer (an average over 3 steps
    # divided by 2.5, a rung n=5.5 walked 6 steps, an orbit length misnamed
    # as the horizon n of its orbits' steps), a level, sample, pair or
    # candidate count that is no integer (a TypeError from range or numpy
    # that names nothing), a delta <= 0 on the alpha <= 0 path (negative
    # cards and radii), an infinite delta (empty covers at alpha 0, a lemma
    # with no violation and a NaN margin), and an infinite count or scale (a
    # NaN dimension, or an error from LAPACK).  A float block start or seed
    # was truncated (block 1.999 read as block 1), a count of 0 or less drew no
    # candidate and read as inconclusive, and a horizon or depth of 2.5 or 0
    # was truncated to an entry at n = 2 or divided by zero.  An exact
    # ladder's horizons out of order came back out of order, and no depth
    # at all raised an IndexError.  A bool counted as an integer: seed True
    # read seed 1's stream, and True ran as a rung, horizon or step count 1.
    # A thread count of 2.5 or "2" ran a closed-form cover silently.  A NaN
    # phibar or slack gave a verdict (bound-holds, or a band straddling the
    # bound), a NaN budget let a cover examine every cell and a budget True
    # read as 1, a catalog parameter False or True built the system or
    # observable at 0 or 1, and a dimension d of 1.5 gave a bound
    sysd = E.get_system("doubling")
    with pytest.raises(error, match=rf"\b{arg}\b"):
        call(sysd, E.get_observable("cos1", sysd))


def test_dimension_upper_bound_values():
    assert E.dimension_upper_bound(1, 2.0, math.log(2.0)) == 0.0
    assert E.dimension_upper_bound(2, 2.0, 0.1) == pytest.approx(2.0 - 0.1 / math.log(2.0))
    # high-precision second route for an interior value
    h = E.cramer_bernoulli(0.25)
    with mpmath.workdps(40):
        want = float(1 - mpmath.mpf(h) / mpmath.log(2))
    assert E.dimension_upper_bound(1, 2.0, h) == pytest.approx(want, abs=1e-13)
    with pytest.raises(RateNotEstablishedError):
        E.dimension_upper_bound(1, 2.0, 0.0)
    with pytest.raises(RateNotEstablishedError):
        E.dimension_upper_bound(1, 2.0, -0.3)
    with pytest.raises(ValueError):
        E.dimension_upper_bound(0, 2.0, 0.1)
    with pytest.raises(ValueError):
        E.dimension_upper_bound(1, 1.0, 0.1)


def test_bound_verdict_reaches_every_outcome():
    # d0 comes from the fit at alpha/2; the verdict compares the box band with d0 + slack
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)

    def fit(h):
        return E.RateFunctionFit(1.0, h, (20, 60), 1.0, 0.0, 0)

    bound = E.rate_bound(sysd, {0.3: fit(0.25 * math.log(2.0)), 0.6: fit(0.5)}, 0.6)
    assert bound == E.RateBound(0.6, 0.25 * math.log(2.0), 0.5, 0.75, None)

    def verdict(bound, box):
        return E.bound_verdict(cos1, 0.0, bound, box, slack=0.25)

    B = E.BoxDimension
    assert verdict(bound, B(0.9, 0.8, 1.0)) == (E.VERDICT_HOLDS, None)       # upper <= 1.0
    assert verdict(bound, B(1.1, 1.01, 1.2)) == (E.VERDICT_VIOLATED, None)  # lower > 1.0
    assert verdict(bound, B(1.1, 1.0, 1.2)) == (E.VERDICT_INCONCLUSIVE,
                                                "box-dimension band straddles the bound")
    assert verdict(bound, None) == (E.VERDICT_INCONCLUSIVE,
                                    "cover ladder cannot support a box-dimension fit")
    # past max_deviation = sup|cos1| + |phibar| = 1 no point deviates
    assert verdict(bound._replace(alpha=1.01), B(0.9, 0.8, 1.0)) == (
        E.VERDICT_INCONCLUSIVE, "deviation set is empty at this threshold")
    for fits in ({0.6: fit(0.5)}, {0.3: None, 0.6: fit(0.5)}):
        none = E.rate_bound(sysd, fits, 0.6)
        assert none == E.RateBound(0.6, None, 0.5, None, "no usable rate fit at alpha/2")
        assert verdict(none, B(0.9, 0.8, 1.0)) == (E.VERDICT_INCONCLUSIVE, none.reason)
    flat = E.rate_bound(sysd, {0.3: fit(-0.01)}, 0.6)
    assert (flat.h_half, flat.d0, flat.reason) == (-0.01, None,
                                                   "decay rate h=-0.01 is not positive")
    assert verdict(flat, B(0.9, 0.8, 1.0)) == (E.VERDICT_INCONCLUSIVE, flat.reason)


def test_bound_identity_with_binary_entropy():
    # 1 - (ln2 - H(1/2 + a))/ln2 == H(1/2 + a)/ln2, the exact benchmark value
    for a in (0.05, 0.15, 0.25, 0.35, 0.45):
        d0 = E.dimension_upper_bound(1, 2.0, E.cramer_bernoulli(a))
        be = E.besicovitch_eggleston_dimension(a)
        assert d0 == pytest.approx(be.value, abs=1e-12)


def test_ball_lemma_positive_control():
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    delta = E.modulus_delta_for(sysd, cos1, 0.4)
    rep = E.verify_ball_lemma(sysd, cos1, 0.0, 0.4, delta, n=10,
                              pair_count=2000, seed=11)
    assert rep.pairs_checked == 2000
    assert rep.violations == 0
    assert not rep.inconclusive
    assert rep.worst_margin > 0.0
    assert rep.radius == pytest.approx(delta * 2.0 ** -10)
    # same seed, same report
    rep2 = E.verify_ball_lemma(sysd, cos1, 0.0, 0.4, delta, n=10,
                               pair_count=2000, seed=11)
    assert rep == rep2


def test_ball_lemma_inconclusive_paths():
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    # threshold no deviation can reach: nothing to sample at all
    rep = E.verify_ball_lemma(sysd, cos1, 0.0, 2.5, 0.01, n=5, pair_count=10, seed=0)
    assert rep.inconclusive and rep.pairs_checked == 0 and rep.candidates_drawn == 0
    assert math.isinf(rep.worst_margin)
    # reachable (deviations from -0.95 reach 1.95) but far too rare:
    # rejection budget runs out
    rep = E.verify_ball_lemma(sysd, cos1, -0.95, 1.9, 0.01, n=25, pair_count=5,
                              seed=0, candidate_factor=20)
    assert rep.inconclusive
    assert rep.pairs_checked == 0
    assert rep.candidates_drawn == 100
    with pytest.raises(ValueError):
        E.verify_ball_lemma(sysd, cos1, 0.0, 0.4, 0.01, n=0, pair_count=5, seed=0)
    with pytest.raises(ValueError):
        E.verify_ball_lemma(sysd, cos1, 0.0, 0.4, 0.01, n=5, pair_count=0, seed=0)
    # a zero or negative radius checks nothing: refused, as covers refuse it
    for delta in (0.0, -0.01):
        with pytest.raises(ValueError, match="delta"):
            E.verify_ball_lemma(sysd, cos1, 0.0, 0.4, delta, n=8, pair_count=50, seed=0)


def test_ball_lemma_stops_at_the_float64_budget():
    # float64 doubling orbits collapse onto 0 within 53 steps; unchecked, 200
    # of the first 8192 candidates "deviate" by 0.4 at n=200 (alpha 0.4, seed 1)
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    for n in (46, 200):
        with pytest.raises(ValueError, match="n=45"):
            E.verify_ball_lemma(sysd, cos1, 0.0, 0.4, 0.01, n, pair_count=200, seed=1)
    # the budget holds whatever the threshold, as it does for covers
    with pytest.raises(ValueError, match="n=45"):
        E.verify_ball_lemma(sysd, cos1, 0.0, 2.5, 0.01, 46, pair_count=5, seed=0)
    rep = E.verify_ball_lemma(sysd, cos1, 0.0, 0.4, 0.01, 45, pair_count=5, seed=1)
    assert rep.n == 45


def test_cover_full_space_at_alpha_zero():
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    lad = E.build_cover_ladder(sysd, cos1, 0.0, 0.0, 0.01, 0, 0, dprimes=(1.0,))
    assert len(lad.entries) == 1
    e = lad.entries[0]
    assert e.n == 0 and e.card == 200            # cells of side 0.005
    assert e.r_n == 0.01
    assert dict(e.volumes)[1.0] == pytest.approx(2.0)
    assert lad.examined_cells == 0               # analytic: nothing evaluated


def test_cover_empty_beyond_observable_range():
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    for phibar, alpha in ((0.0, 2.5), (0.0, 1.5), (-0.5, 1.6)):   # past sup|phi| + |phibar|
        lad = E.build_cover_ladder(sysd, cos1, phibar, alpha, 0.01, 3, 6)
        assert [e.card for e in lad.entries] == [0, 0, 0, 0]
        assert lad.examined_cells == 0


def test_deviation_sets_reach_sup_phi_plus_abs_phibar():
    # from phibar = 5 every point of doubling x cos1 deviates by at least 4,
    # past 2 sup|phi| = 2: the ladders read 1, the cover's cards are full
    # grids, and the ball lemma accepts every candidate
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    lads = E.build_deviation_ladders(sysd, cos1, 5.0, [3.0], [4, 8], 1000, 1)
    assert [(e.measure, e.std_error) for e in lads[3.0].entries] == [(1.0, 0.0)] * 2
    delta = E.modulus_delta_for(sysd, cos1, 3.0)
    lad = E.build_cover_ladder(sysd, cos1, 5.0, 3.0, delta, 1, 4)
    assert [e.card for e in lad.entries] == [_grid_cells(sysd, delta * 2.0**-n / 2.0)
                                            for n in range(1, 5)]
    assert lad.examined_cells == sum(e.card for e in lad.entries)
    rep = E.verify_ball_lemma(sysd, cos1, 5.0, 3.0, delta, n=8, pair_count=50, seed=2)
    assert rep.candidates_drawn > 0 and rep.pairs_checked == 50
    assert rep.violations == 0 and not rep.inconclusive


def test_cover_ladder_builds_one_coefficient_table(monkeypatch):
    # a closed-form ladder builds its character coefficients once, in 1-d
    # and in 2-d; each level and its band read rows of that table
    calls = []
    build = dimension._character_coefficients

    def counted(sys, obs, n):
        calls.append(n)
        return build(sys, obs, n)

    monkeypatch.setattr(dimension, "_character_coefficients", counted)
    for sid, alpha, n_lo, n_hi in (("doubling", 0.6, 10, 13), ("cat", 0.4, 1, 3)):
        sysm = E.get_system(sid)
        cos1 = E.get_observable("cos1", sysm)
        calls.clear()
        E.build_cover_ladder(sysm, cos1, 0.0, alpha, E.modulus_delta_for(sysm, cos1, alpha),
                             n_lo, n_hi)
        assert calls == [n_hi], sid


def test_cover_validation():
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    with pytest.raises(ValueError):
        E.build_cover_ladder(sysd, cos1, 0.0, 0.5, 0.01, 5, 4)
    with pytest.raises(ValueError):
        E.build_cover_ladder(sysd, cos1, 0.0, 0.5, 0.01, 0, 3)     # n >= 1 when alpha > 0
    with pytest.raises(ValueError):
        E.build_cover_ladder(sysd, cos1, 0.0, 0.5, 0.0, 1, 3)
    with pytest.raises(ValueError):
        E.build_cover_ladder(sysd, DIGIT, 0.5, 0.3, 0.01, 1, 3)    # no Lipschitz bound
    with pytest.raises(ValueError):
        E.build_cover_ladder(sysd, cos1, 0.0, 0.5, 0.01, 1, 46)    # beyond float64 depth
    with pytest.raises(ValueError):
        E.build_cover_ladder(E.get_system("cat"), cos1, 0.0, 0.5, 0.01, 1, 33)


def test_cover_budget_precheck():
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    delta = E.modulus_delta_for(sysd, cos1, 0.5)
    with pytest.raises(GridBudgetError, match="cells"):
        E.build_cover_ladder(sysd, cos1, 0.0, 0.5, delta, 10, 12, budget=100)


def test_cover_pruning_matches_dense_sweep():
    # a level reached through pruned ancestors must count exactly the cells a
    # dense sweep of that level counts, while examining fewer of them
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    delta = E.modulus_delta_for(sysd, cos1, 0.5)
    dense = E.build_cover_ladder(sysd, cos1, 0.0, 0.5, delta, 8, 8)
    pruned = E.build_cover_ladder(sysd, cos1, 0.0, 0.5, delta, 6, 8)
    assert dense.entries[0].card == pruned.entries[-1].card
    assert pruned.entries[-1].card > 0
    dense_all = sum(E.build_cover_ladder(sysd, cos1, 0.0, 0.5, delta, n, n).examined_cells
                    for n in (6, 7, 8))
    assert pruned.examined_cells < dense_all



def _runs(cells):
    """The runs [lo, hi) of consecutive cells of a sorted, unique int64 array."""
    return cells[np.diff(cells, prepend=-2) != 1], cells[np.diff(cells, append=-1) != 1] + 1


def _cells(lo, hi):
    """The cells of runs [lo, hi), one arange a run."""
    return np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)] + [np.empty(0, np.int64)])


def _assert_runs(lo, hi):
    """lo, hi are int64 runs: non-empty, sorted, disjoint and non-touching."""
    assert lo.dtype == hi.dtype == np.int64 and lo.shape == hi.shape
    assert np.all(lo < hi) and np.all(lo[1:] > hi[:-1])


def test_cover_dedup_equals_np_unique():
    # children are the union of overlapping windows, wrapped on the torus and
    # clipped on the interval: their runs, expanded, are np.unique of every
    # window's cells, on random parents, expansion ratios and grid sizes.
    # The random cases hold windows crossing 0 and m_next, windows larger
    # than the circle (the coarsest grids) and empty relaxed sets
    rng = np.random.default_rng(8)
    sysd, syst = E.get_system("doubling"), E.get_system("tent")
    seen = set()
    for _ in range(400):
        m = int(rng.integers(1, 300))
        ratio = float(rng.choice([2.0, 2.5, 3.7]))
        m_next = max(1, math.ceil(m * ratio) + int(rng.integers(-2, 3)))
        relaxed = np.flatnonzero(rng.random(m) < rng.random())
        width = math.ceil(3.0 * ratio) + 2
        base = np.floor((relaxed - 1.0) * ratio).astype(np.int64)
        windows = (base[:, None] + np.arange(width)).ravel()
        seen |= {"empty"} if relaxed.size == 0 else {
            *(["at 0"] if base[0] < 0 else []), *(["at end"] if base[-1] + width > m_next else []),
            *(["circle"] if width > m_next else [])}
        for sysm, cells in ((sysd, windows % m_next), (syst, np.clip(windows, 0, m_next - 1))):
            lo, hi = _children_1d(sysm, *_runs(relaxed), ratio, m_next)
            _assert_runs(lo, hi)
            assert np.array_equal(_cells(lo, hi), np.unique(cells))
    assert seen == {"empty", "at 0", "at end", "circle"}
    relaxed = np.unique(np.concatenate([[0, 1, 2], rng.integers(0, 400, 80), [398, 399]]))
    for sid in ("doubling", "tent"):
        lo, hi = _children_1d(E.get_system(sid), *_runs(relaxed), 2.0, 800)
        _assert_runs(lo, hi)
        assert lo[0] == 0 and hi[-1] == 800
        lo, hi = _children_1d(E.get_system(sid), *_runs(np.empty(0, np.int64)), 2.5, 800)
        _assert_runs(lo, hi)
        assert lo.size == 0


def test_walk_hits_chunking_is_invisible():
    # a batch of two _POINT_CHUNKs and more, walked whole, gives the masks
    # of pieces walked one after another in the same thread's kept buffers,
    # and those of the float64 deviations; thresholds at points' own
    # float64 deviations, spread over the batch, are decided by the recount
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    pts = np.random.default_rng(2).random((2 * _POINT_CHUNK + 5, 1))
    step = _POINT_CHUNK // 5 + 7
    exact = deviation(sysd, cos1, 0.1, pts, 3)
    ties = tuple(float(exact[i]) for i in (0, pts.shape[0] // 3, _POINT_CHUNK, pts.shape[0] - 1))
    for thresholds in [(0.3,), ties]:
        want = np.concatenate([_walk_hits(sysd, cos1, 0.1, pts[i:i + step], 3, thresholds)
                               for i in range(0, pts.shape[0], step)], axis=1)
        assert np.array_equal(want, [exact >= t for t in thresholds])
        assert np.array_equal(_walk_hits(sysd, cos1, 0.1, pts, 3, thresholds), want)


def test_walk_hits_decide_ties_and_band_rows_in_float64():
    # the screened walk of cos1 is float32 from its points to its
    # deviations, within the band of the float64 ones but not equal to
    # them.  A threshold at a row's float64 deviation where the screen reads
    # lower, or just above it where the screen reads higher, puts the row in
    # the band with the screen on the wrong side of it: the masks still
    # equal the float64 walk's >=, as they do at 0.3
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    pts = np.random.default_rng(5).random((5000, 1))
    band = float32_band(sysd, cos1, 9)
    exact = deviation(sysd, cos1, 0.1, pts, 9)
    screened = next(deviations(_FloatOrbits(sysd, pts), cos1, 0.1, np.float32, [9]))
    gap = screened.astype(np.float64) - exact
    assert 0.0 < np.max(np.abs(gap)) <= band
    tie_rows = np.concatenate([np.flatnonzero(gap < 0.0)[:3], np.flatnonzero(gap > 0.0)[:3]])
    thresholds = (*exact[tie_rows[:3]], *np.nextafter(exact[tie_rows[3:]], np.inf), 0.3)
    masks = _walk_hits(sysd, cos1, 0.1, pts, 9, thresholds)
    assert len(masks) == len(thresholds)
    for t, hit in zip(thresholds, masks):
        assert np.array_equal(hit, exact >= t)
    for row, t, hit in zip(tie_rows, thresholds, masks):
        # the screen alone decides the other way at the tie row
        assert (screened[row] >= np.float32(t)) != hit[row]


def test_closed_form_masks_equal_walked_masks(monkeypatch):
    # the closed form's masks equal those the float64-walk screen gives on
    # the same points: the stencil points of a closed-form 1-d doubling
    # level, whose cells (corners and centre ORed) give the walked cards at
    # alpha and relaxed cells at tau, and the corner grid of a 2-d cat
    # level, with thresholds on their own float64 deviations
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    phibar, n, s = 0.02, 9, 1.0 / 3001.5
    cand = np.unique(np.random.default_rng(9).choice(_grid_cells(sysd, s), 1500))
    stencil = [_grid_points(sysd, c, s) for c in
               (cand.astype(np.float64), cand + 1.0, cand + 0.5)]
    ties = deviation(sysd, cos1, phibar, stencil[2], n)[[3, 600, 1100]]
    thresholds = (0.4, 0.1, *ties)
    walked = dict(zip(thresholds, np.logical_or.reduce(
        [_walk_hits(sysd, cos1, phibar, p, n, thresholds) for p in stencil])))
    seen = []
    hits = dimension._hits

    def recording(dev, band, thresholds, exact):
        masks = hits(dev, band, thresholds, exact)
        exact_dev = exact(np.arange(dev.size)).reshape(dev.shape)
        seen.extend(np.array_equal(hit, exact_dev >= t) for t, hit in zip(thresholds, masks))
        return masks

    monkeypatch.setattr(dimension, "_hits", recording)
    batches = _recording_walk(monkeypatch)
    coef = _character_coefficients(sysd, cos1, n)
    for alpha, tau in [(0.4, 0.1), (ties[0], ties[1]), (ties[2], 0.4)]:
        card, relaxed = _cover_level_1d(sysd, cos1, phibar, alpha, tau, s, n, *_runs(cand),
                                        coef, 1)
        assert card == np.count_nonzero(walked[alpha])
        assert np.array_equal(_cells(*relaxed), cand[walked[tau]])
    assert seen and all(seen) and not batches

    sysc = E.get_system("cat")
    cos1 = E.get_observable("cos1", sysc)
    axis = _grid_points(sysc, np.arange(61, dtype=np.float64), 1.0 / 60).ravel()
    pts = _grid_2d(axis, axis).copy()   # the thread's kept grid: the walks below build theirs
    coef = _character_coefficients(sysc, cos1, 5)
    ties = deviation(sysc, cos1, phibar, pts, 5)[[10, 1000, 3000]]
    thresholds = (0.4, *ties)
    got = _closed_form_hits(sysc, cos1, phibar, 5, closed_form_band(sysc, coef), thresholds,
                            _row_factor(cos1, axis, coef[:, 0]), _col_factor(cos1, axis, coef[:, 1]),
                            lambda rows: pts[rows])
    walked = _walk_hits(sysc, cos1, phibar, pts, 5, thresholds)
    assert np.array_equal(np.reshape(got, (len(thresholds), -1)), walked)


def _recording(obs):
    """obs with an fn that records the dtype of every batch it evaluates."""
    dtypes = set()

    def fn(p, _fn=obs.fn):
        dtypes.add(p.dtype)
        return _fn(p)

    return dataclasses.replace(obs, fn=fn), dtypes


def _recording_phases(monkeypatch):
    """Patch float batches to record the dtype of every phase array they hand
    out: the float32 screen takes its cosines from those, not from obs.fn."""
    dtypes = set()
    points = _FloatOrbits.points

    def recording(self, phase=False):
        out = points(self, phase)
        if phase:
            dtypes.add(out.dtype)
        return out

    monkeypatch.setattr(_FloatOrbits, "points", recording)
    return dtypes


def _ref_dev(sysm, obs, phibar, pts, n):
    """Float64 deviations by the public time average."""
    return np.abs(E.time_average(sysm, obs, pts, n) - phibar)


def _recording_walk(monkeypatch, name="_walk_hits"):
    """Patch dimension.<name>, the screened walk or (name="deviation") the
    float64 recount, to record the batches it is called on."""
    batches = []
    walk = getattr(dimension, name)

    def recording(sys, obs, phibar, pts, n, *rest):
        batches.append(pts.copy())
        return walk(sys, obs, phibar, pts, n, *rest)

    monkeypatch.setattr(dimension, name, recording)
    return batches


def _cellmax_1d(sysm, obs, phibar, cand, s, n):
    """Float64 stencil maxima of 1-d cells by the public time average."""
    return np.maximum.reduce([
        _ref_dev(sysm, obs, phibar, _grid_points(sysm, c, s), n)
        for c in (cand, cand + 1, cand.astype(np.float64) + 0.5)])


@pytest.mark.parametrize("sid,skw", [("doubling", {}), ("tent", {}),
                                     ("logistic", {"c": -1.7})])
def test_cover_level_1d_screen_equals_float64(monkeypatch, sid, skw):
    # Cards and relaxed sets decided from cheaper deviations equal those of
    # float64 ones: the closed form on doubling (a linear map with a
    # character), float32 on tent and logistic.  Thresholds set to the cell
    # maxima of chosen cells put a stencil point exactly on alpha or tau,
    # where only the float64 recount decides.
    sysm = E.get_system(sid, **skw)
    cos1 = E.get_observable("cos1", sysm)
    phibar, n = 0.05, 7
    s = (sysm.hi - sysm.lo) / 2500.0
    m = _grid_cells(sysm, s)
    cand = np.flatnonzero(np.random.default_rng(4).random(m) < 0.7)
    cellmax = _cellmax_1d(sysm, cos1, phibar, cand, s, n)
    ties = cellmax[np.argsort(cellmax)[[200, 500, 900, 1300, 1500, 1700]]]
    monkeypatch.setattr(dimension, "_POINT_CHUNK", 500)   # several chunks
    batches = _recording_walk(monkeypatch, "deviation")
    phases = _recording_phases(monkeypatch)
    closed = sid == "doubling"
    # a ladder's coefficients run to its deepest level: the level reads its first n rows
    coef = _character_coefficients(sysm, cos1, n + 3) if closed else None
    recounted = False
    for alpha, tau in [(0.3, 0.1), (ties[0], ties[1]), (ties[2], ties[3]),
                       (ties[4], ties[5]), (ties[5], -0.1)]:
        for threads in (1, 2):
            obs, dtypes = _recording(cos1)
            batches.clear()
            phases.clear()
            card, relaxed = _cover_level_1d(sysm, obs, phibar, alpha, tau, s, n, *_runs(cand),
                                            coef, threads)
            assert card == np.count_nonzero(cellmax >= alpha)
            assert np.array_equal(_cells(*relaxed), cand[cellmax >= tau])
            # obs.fn sees float64 points only: the float32 screen takes
            # its cosines from the phases
            assert dtypes <= {np.dtype(np.float64)}
            if not closed:
                assert phases == {np.dtype(np.float32)}
                recounted |= np.dtype(np.float64) in dtypes
                continue
            # the closed form walks no float32 point, and the tie points
            # are recounted by the float64 walk
            assert not phases
            walked = np.concatenate([_ref_dev(sysm, cos1, phibar, b, n) for b in batches]
                                    or [np.empty(0)])
            ties_at = [t for t in (alpha, tau) if t in ties]
            assert all(np.any(walked == t) for t in ties_at)
            recounted |= bool(ties_at)
    assert recounted


def test_cover_level_1d_closed_form_layout(monkeypatch):
    # Runs shorter and longer than a block, single cells, a run ending at
    # cell m - 1 (whose right corner wraps past 1), the dense level (one
    # run) and a level with no candidates give the float64 walk's cards and
    # relaxed sets, in closed form and walked, at 1 and 2 threads, with
    # thresholds on cell maxima at both alpha and tau; small chunks put
    # several bands of blocks in a level.
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    phibar, n, B = 0.02, 9, dimension._BLOCK
    s = 1.0 / 3001.5
    m = _grid_cells(sysd, s)
    assert _grid_points(sysd, np.array([float(m)]), s)[0, 0] < s
    runs = [np.arange(3, 3 + B // 3), [B], [B + 2], np.arange(2 * B, 5 * B + 7),
            np.arange(6 * B, 7 * B), [8 * B + 1], np.arange(m - B - 5, m)]
    rng = np.random.default_rng(8)
    sparse = np.unique(np.concatenate(runs + [rng.choice(np.arange(9 * B, m - 2 * B), 300)]))
    monkeypatch.setattr(dimension, "_POINT_CHUNK", 4 * (2 * B + 1))   # four blocks a band
    coef = _character_coefficients(sysd, cos1, n)
    for cand in (sparse, np.arange(m)):
        cellmax = _cellmax_1d(sysd, cos1, phibar, cand, s, n)
        picks = cellmax[np.argsort(cellmax)[np.linspace(0, cand.size - 1, 6).astype(int)]]
        for alpha, tau in [(0.4, 0.1), (picks[5], picks[2]), (picks[4], picks[1]),
                           (picks[3], picks[0])]:
            for threads, table in [(1, coef), (2, coef), (1, None), (2, None)]:
                card, relaxed = _cover_level_1d(sysd, cos1, phibar, alpha, tau, s, n,
                                                *_runs(cand), table, threads)
                assert card == np.count_nonzero(cellmax >= alpha)
                _assert_runs(*relaxed)
                assert np.array_equal(_cells(*relaxed), cand[cellmax >= tau])
    none = np.empty(0, np.int64)
    for table in (coef, None):
        card, relaxed = _cover_level_1d(sysd, cos1, phibar, 0.4, 0.1, s, n, none, none,
                                        table, 1)
        assert card == 0 and relaxed[0].size == relaxed[1].size == 0


@pytest.mark.parametrize("sid,oid,phibar,alpha", [("tent", "cos1", 0.0, 0.5),
                                                   ("doubling", "coord", 0.25, 0.15)])
def test_walked_1d_levels_walk_bands_of_point_chunks(monkeypatch, sid, oid, phibar, alpha):
    # a walked 1-d level walks the stencil points of its runs in bands of at
    # most _POINT_CHUNK points, one band a call on the threads of the pool,
    # and the pruned ladder's cards are those of every cell's float64 stencil maxima
    monkeypatch.setattr(dimension, "_POINT_CHUNK", 150)
    batches = _recording_walk(monkeypatch)
    sysm = E.get_system(sid)
    obs = E.get_observable(oid, sysm)
    delta = E.modulus_delta_for(sysm, obs, alpha)
    lad = E.build_cover_ladder(sysm, obs, phibar, alpha, delta, 4, 8, threads=2)
    assert len(batches) > 5 * len(lad.entries)
    assert max(b.shape[0] for b in batches) <= 150
    dense = 0
    for e in lad.entries:
        s = delta * sysm.L ** -e.n / 2.0
        cells = np.arange(_grid_cells(sysm, s))
        dense += cells.size
        assert e.card == np.count_nonzero(_cellmax_1d(sysm, obs, phibar, cells, s, e.n) >= alpha)
    assert 0 < lad.examined_cells < dense


@pytest.mark.parametrize("oid,phibar,alpha", [("cos1", 0.02, 0.5), ("coord", 0.5, 0.2)])
def test_1d_levels_across_bands(monkeypatch, oid, phibar, alpha):
    # Bands of two blocks put a level in many bands.  Relaxed runs
    # that go on across block and band edges, and candidate runs that start
    # a band, give the runs and cards of brute force and of one band, in
    # closed form (cos1 on doubling) and walked (coord), at 1, 2 and 3
    # threads; a pruned ladder gives the cards of brute force and the cards
    # and examined cells of one band.
    sysd = E.get_system("doubling")
    obs = E.get_observable(oid, sysd)
    n, B = 9, dimension._BLOCK
    s = 1.0 / 3001.5
    m = _grid_cells(sysd, s)
    cand = np.concatenate([np.arange(12 * B), np.arange(12 * B + 1, 24 * B + 1),
                           np.arange(24 * B + 3, 25 * B + 10), [26 * B], np.arange(27 * B, m)])
    lo, hi = _runs(cand)
    p = np.concatenate([np.arange(a, b, B) for a, b in zip(lo, hi)])   # the blocks' first cells
    cellmax = _cellmax_1d(sysd, obs, phibar, cand, s, n)
    q = np.sort(cellmax)[(np.array([0.9, 0.1, 0.6, 0.3]) * cand.size).astype(int)]
    thresholds = [(q[0], q[1]), (q[2], q[3])]
    coef = _character_coefficients(sysd, obs, n) if oid == "cos1" else None
    delta = E.modulus_delta_for(sysd, obs, alpha)

    def level(alpha, tau, threads):
        card, runs = _cover_level_1d(sysd, obs, phibar, alpha, tau, s, n, lo, hi, coef, threads)
        assert card == np.count_nonzero(cellmax >= alpha)
        _assert_runs(*runs)
        assert np.array_equal(_cells(*runs), cand[cellmax >= tau])
        return runs

    monkeypatch.setattr(dimension, "_POINT_CHUNK", 1 << 30)   # one band a level
    one_band = [level(a, t, 1) for a, t in thresholds]
    ladder = E.build_cover_ladder(sysd, obs, phibar, alpha, delta, 4, 9)
    for e in ladder.entries:
        s_n = delta * sysd.L ** -e.n / 2.0
        cells = np.arange(_grid_cells(sysd, s_n))
        assert e.card == np.count_nonzero(_cellmax_1d(sysd, obs, phibar, cells, s_n, e.n) >= alpha)
    monkeypatch.setattr(dimension, "_POINT_CHUNK", 2 * (2 * B + 1))   # two blocks a band
    starts = np.flatnonzero(np.isin(p, lo))   # the blocks that start a candidate run
    assert np.any((starts > 0) & (starts % 2 == 0))
    edges = [p[~np.isin(p, lo)], np.setdiff1d(p[::2], lo)]   # block and band edges
    for threads in (1, 2, 3):
        crossed = [False, False]
        for (a, t), want in zip(thresholds, one_band):
            runs = level(a, t, threads)
            assert all(np.array_equal(got, w) for got, w in zip(runs, want))
            for i, c in enumerate(edges):   # cells c - 1 and c in one relaxed run
                crossed[i] |= bool(np.any((runs[0][:, None] < c) & (c < runs[1][:, None])))
        assert all(crossed)
        lad = E.build_cover_ladder(sysd, obs, phibar, alpha, delta, 4, 9, threads=threads)
        assert lad.entries == ladder.entries and lad.examined_cells == ladder.examined_cells


def test_walked_1d_level_memory_is_bounded_by_its_band():
    # a walked 1-d level of 2M candidate cells holds its per-block arrays
    # and one band of _POINT_CHUNK stencil points a thread at a time: its
    # peak is a few bands' points, not a multiple of the level's cells.
    # Its threads walk in buffers of their own: the level is the same at
    # 1 and 2 threads
    sysd = E.get_system("doubling")
    coord = E.get_observable("coord", sysd)
    s = 1.0 / 2_000_000
    m = _grid_cells(sysd, s)
    assert m >= 2_000_000
    levels = []
    for threads in (1, 2):
        tracemalloc.start()
        try:
            card, runs = _cover_level_1d(sysd, coord, 0.5, 0.2, 0.1, s, 4, np.array([0]),
                                         np.array([m]), None, threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < card < m and runs[0].size
        assert peak < 16 * 8 * _POINT_CHUNK * threads   # 16 bands of float64 points
        levels.append((card, *runs))
    assert levels[0][0] == levels[1][0]
    assert all(np.array_equal(a, b) for a, b in zip(levels[0][1:], levels[1][1:]))


def test_one_chunk_ladder_memory_is_its_state_a_piece_and_its_walk():
    # a one-chunk ladder (_POINT_CHUNK samples, threads 1) of doubling, tent
    # and cat x cos1 puts its counter blocks into the ensemble's state piece
    # by piece.  Once a first ladder has made the thread's kept walk arrays
    # (sums and deviations), the next one's traced peak stays under that
    # state (four 32-bit limbs a sample on doubling and tent, four 64-bit
    # words on cat), one piece of blocks, and four 4-byte and three bool
    # (count,) arrays: the ensemble's scratch (phases, group words, the
    # fold's or the carry's) and the threshold masks.  A whole (count, 4)
    # block array of 32 bytes a sample beside the state would exceed it
    count = _POINT_CHUNK
    for sid, state in (("doubling", 16), ("tent", 16), ("cat", 32)):
        sysm = E.get_system(sid)
        cos1 = E.get_observable("cos1", sysm)

        def ladder():
            return E.build_deviation_ladders(sysm, cos1, 0.0, [0.3, 0.1], range(4, 41, 4),
                                             count, 5, threads=1)

        ladder()                     # one-time allocations and the kept arrays come first
        tracemalloc.start()
        try:
            ladder()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = state * count + 8 * WORDS_PER_BLOCK * _PIECE + (4 * 4 + 3) * count
        assert peak < bound, (sid, peak, bound)


def test_closed_form_band_bounds_the_1d_split(monkeypatch):
    # at every level of perfbench's doubling-report cover (alpha 0.6, n 10
    # to 17), the closed-form deviations of the blocks of runs starting at
    # the first cells, at random cells and ending at the last cell (its
    # corner m wraps past 1) stay within 1/8 of closed_form_band of the
    # float64 walk's
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    delta = E.modulus_delta_for(sysd, cos1, 0.6)
    seen = []
    hits = dimension._hits

    def recording(dev, band, thresholds, exact):
        walked = exact(np.arange(dev.size))
        seen.append(float(np.max(np.abs(dev.ravel() - walked))))
        return hits(dev, band, thresholds, exact)

    monkeypatch.setattr(dimension, "_hits", recording)
    rng = np.random.default_rng(6)
    for n in range(10, 18):
        s = delta * sysd.L ** -n / 2.0
        m = _grid_cells(sysd, s)
        assert _grid_points(sysd, np.array([float(m)]), s)[0, 0] < 1.0 - s
        cand = np.unique(np.concatenate([np.arange(200), rng.choice(m, 2000),
                                         np.arange(m - 200, m)]))
        seen.clear()
        coef = _character_coefficients(sysd, cos1, n)
        _cover_level_1d(sysd, cos1, 0.01, 0.6, 0.3, s, n, *_runs(cand), coef, 1)
        assert 0.0 < max(seen) <= closed_form_band(sysd, coef) / 8.0


def test_product_bands_equal_one_matmul(monkeypatch):
    # a tall factor is multiplied in bands of rows, a wide one in column
    # blocks.  Both equal one plain matmul to within the rounding of a
    # k-term dot product in any order, gamma_k sum |a||b| (the bound
    # closed_form_band takes for the product), though not always to its bits
    rng = np.random.default_rng(3)
    u = 2.0**-53
    for macs in (5000, dimension._BLAS_MACS):
        monkeypatch.setattr(dimension, "_BLAS_MACS", macs)
        for shape_a, shape_b in [((1000, 34), (34, 129)), ((509, 20), (20, 129)),
                                 ((7, 10), (10, 3000))]:
            a, b = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
            got, want = dimension._product(a, b), np.matmul(a, b)
            k = a.shape[1]
            assert np.all(np.abs(got - want) <= 2.0 * k * u * (np.abs(a) @ np.abs(b)))


def test_cover_level_2d_screen_equals_float64(monkeypatch):
    # Cards from the closed form of cos1 on the cat map equal those of the
    # float64 walk.  Thresholds set to the cell maxima of chosen cells put a
    # stencil point exactly on alpha, where only the walk's recount decides;
    # fn runs on the phases of the level's four cos/sin tables and on the
    # recounted points only.  n = 5 is the depth of cat.ini.
    sysc = E.get_system("cat")
    cos1 = E.get_observable("cos1", sysc)
    phibar, m = 0.02, 90
    s = 1.0 / m
    recounts = _recording_walk(monkeypatch, "deviation")
    monkeypatch.setattr(dimension, "_POINT_CHUNK", 700)   # closed-form bands of 7 rows
    for n in (3, 5):
        coef = _character_coefficients(sysc, cos1, n)
        idx = np.arange(m + 1, dtype=np.float64) * s % 1.0
        corners = np.stack(np.broadcast_arrays(idx[:, None], idx[None, :]), axis=-1)
        dev_c = _ref_dev(sysc, cos1, phibar, corners.reshape(-1, 2), n).reshape(m + 1, m + 1)
        cidx = (np.arange(m, dtype=np.float64) + 0.5) * s % 1.0
        centers = np.stack(np.broadcast_arrays(cidx[:, None], cidx[None, :]), axis=-1)
        dev_m = _ref_dev(sysc, cos1, phibar, centers.reshape(-1, 2), n).reshape(m, m)
        cellmax = np.maximum.reduce([dev_c[:-1, :-1], dev_c[1:, :-1],
                                     dev_c[:-1, 1:], dev_c[1:, 1:], dev_m]).ravel()
        ties = cellmax[np.argsort(cellmax)[[1000, 3000, 5000, 7000, 8000]]]
        for alpha in [0.4, *ties]:
            for threads in (1, 2):
                evaluated = []

                def fn(p, _fn=cos1.fn):
                    evaluated.append(p.shape[0])
                    return _fn(p)

                obs = dataclasses.replace(cos1, fn=fn)
                recounts.clear()
                card = _cover_level_2d(sysc, obs, phibar, alpha, s, m, n, coef, threads)
                assert card == np.count_nonzero(cellmax >= alpha)
                # fn takes the tables' phases (corner and centre rows and
                # columns, n per point) and walks the recounted points, n
                # steps each; each recounted point lies within two bands of alpha
                tables = [(m + 1) * n, (m + 1) * n, m * n, m * n]
                assert sorted(evaluated) == sorted([r.shape[0] for r in recounts] * n + tables)
                for pts in recounts:
                    near = np.abs(_ref_dev(sysc, cos1, phibar, pts, n) - alpha)
                    assert np.all(near <= 2.0 * closed_form_band(sysc, coef))
                if alpha != 0.4:
                    assert recounts                # a tie is decided by the walk


def test_closed_form_band_bounds_the_float_walk():
    # on a sample of the level-5 grid of configs/cat.ini (alpha 0.4), the
    # closed-form and walked deviations stay within 1/8 of closed_form_band
    sysc = E.get_system("cat")
    cos1 = E.get_observable("cos1", sysc)
    delta = E.modulus_delta_for(sysc, cos1, 0.4)
    s = delta * sysc.L ** -5 / 2.0
    m = _grid_cells(sysc, s)
    rng = np.random.default_rng(5)
    rows = np.sort(rng.choice(m + 1, 300, replace=False)) * s % 1.0
    cols = np.sort(rng.choice(m + 1, 300, replace=False)) * s % 1.0
    pts = np.stack(np.broadcast_arrays(rows[:, None], cols[None, :]), axis=-1).reshape(-1, 2)
    for n in (5, 12):
        coef = _character_coefficients(sysc, cos1, n)
        assert coef[:4].tolist() == [[1, 0], [2, 1], [5, 3], [13, 8]]
        row_f = _row_factor(cos1, rows, coef[:, 0])
        col_f = _col_factor(cos1, cols, coef[:, 1])
        closed = np.abs(row_f @ col_f - 0.01).ravel()
        walked = deviation(sysc, cos1, 0.01, pts, n)
        gap = float(np.max(np.abs(closed - walked)))
        assert 0.0 < gap <= closed_form_band(sysc, coef) / 8.0


# (system, params, observable, phibar, alpha, delta factor, n, pairs, seed)
# and the report fields, recorded before the candidate screen existed
LEMMA_PINS = [
    (("doubling", {}, "cos1", 0.0, 0.4, 1, 10, 300, 7),
     (0.4, 10, 0.031830956787390445, 3.108491873768598e-05, 300, 300, 8192, 0,
      0.1968517185304715, False)),
    (("tent", {}, "cos1", 0.0, 0.5, 1, 9, 300, 3),
     (0.5, 9, 0.039788695984238065, 7.771229684421497e-05, 300, 300, 8192, 0,
      0.23680152163351154, False)),
    (("cat", {}, "cos1", 0.0, 0.4, 1, 8, 300, 5),
     (0.4, 8, 0.031830956787390445, 1.4422729190024746e-05, 300, 300, 8192, 0,
      0.1960215988824368, False)),
    (("logistic", {"c": -1.7}, "cos1", 0.1, 0.6, 1, 6, 300, 2),
     (0.6, 6, 0.04774643518108567, 1.6037930050323853e-05, 300, 300, 8192, 0,
      0.3017221715068695, False)),
    (("doubling", {}, "coord", 0.5, 0.2, 1, 8, 300, 4),
     (0.2, 8, 0.0999999, 0.000390624609375, 300, 300, 8192, 0,
      0.09394470109194378, False)),
    (("doubling", {}, "cos1", 0.0, 0.4, 30, 10, 300, 9),
     (0.4, 10, 0.9549287036217133, 0.0009325475621305794, 300, 300, 8192, 15,
      -0.08204540613914203, False)),
    (("cat", {}, "cos1", 0.0, 0.4, 39, 8, 300, 9),
     (0.4, 8, 1.2414073147082274, 0.0005624864384109651, 300, 300, 8192, 8,
      -0.10765871437552406, False)),
    (("doubling", {}, "cos1", 0.0, 0.8, 1, 8, 50, 1),
     (0.8, 8, 0.06366191357478089, 0.00024867934990148785, 50, 44, 10000, 0,
      0.37962494661049107, False)),
]


@pytest.mark.parametrize("case,want", LEMMA_PINS)
def test_ball_lemma_reports_are_pinned(case, want):
    sid, skw, oid, phibar, alpha, factor, n, pairs, seed = case
    sysm = E.get_system(sid, **skw)
    obs = E.get_observable(oid, sysm)
    delta = factor * E.modulus_delta_for(sysm, obs, alpha)
    rep = E.verify_ball_lemma(sysm, obs, phibar, alpha, delta, n, pairs, seed)
    assert tuple(rep) == want


@pytest.mark.parametrize("sid", ["doubling", "cat"])
def test_ball_lemma_candidate_screen_on_ties(sid):
    # alpha set to a candidate's own float64 deviation: it is accepted only
    # through the recount.  One batch of 8192 draws, more pairs asked for
    # than candidates reach alpha, so every accepted candidate is checked.
    sysm = E.get_system(sid)
    cos1 = E.get_observable("cos1", sysm)
    seed, n = 6, 8
    pts = domain_points(sysm, raw_blocks(seed, STREAM_LEMMA_POINTS, 0, 8192))
    dev = np.sort(_ref_dev(sysm, cos1, 0.0, pts, n))[::-1]
    recounted = False
    for k in (19, 199, 799, 999):
        obs, dtypes = _recording(cos1)
        rep = E.verify_ball_lemma(sysm, obs, 0.0, float(dev[k]), 1e-3, n,
                                  pair_count=1024, seed=seed, candidate_factor=8)
        assert rep.candidates_drawn == 8192
        assert rep.pairs_checked == np.count_nonzero(dev >= dev[k])
        recounted |= np.dtype(np.float64) in dtypes
    assert recounted


def test_cover_refines_under_smaller_delta():
    # halving delta halves the cell size at every level: counts cannot drop
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    delta = E.modulus_delta_for(sysd, cos1, 0.5)
    coarse = E.build_cover_ladder(sysd, cos1, 0.0, 0.5, delta, 8, 8)
    fine = E.build_cover_ladder(sysd, cos1, 0.0, 0.5, delta / 2.0, 8, 8)
    assert fine.entries[0].card >= coarse.entries[0].card


def _cellmax_2d(sysc, obs, phibar, s, m, n):
    """Float64 stencil maxima (four corners, centre) of the m x m cells of
    side s by the public time average."""
    idx = np.arange(m + 1, dtype=float) * s % 1.0
    cx, cy = np.meshgrid(idx, idx, indexing="ij")
    corners = np.stack([cx.ravel(), cy.ravel()], axis=1)
    dev_c = _ref_dev(sysc, obs, phibar, corners, n).reshape(m + 1, m + 1)
    cidx = (np.arange(m, dtype=float) + 0.5) * s % 1.0
    mx, my = np.meshgrid(cidx, cidx, indexing="ij")
    centers = np.stack([mx.ravel(), my.ravel()], axis=1)
    dev_m = _ref_dev(sysc, obs, phibar, centers, n).reshape(m, m)
    return np.maximum.reduce([dev_c[:-1, :-1], dev_c[1:, :-1], dev_c[:-1, 1:], dev_c[1:, 1:],
                              dev_m])


def test_cover_2d_matches_brute_force(monkeypatch):
    # cos1 takes the closed form, coord and bump the float walk; small
    # bands put seams inside every level, at 1, 2 and 3 threads.  A band
    # holds at most _POINT_CHUNK points, or two corner rows where those
    # hold more (bands of 30 at m = 18, of 60 at m = 46)
    batches = _recording_walk(monkeypatch)
    sysc = E.get_system("cat")
    alpha, delta = 0.4, 0.3
    for oid, kw in [("cos1", {}), ("coord", {}), ("bump", {"a": 0.1, "w": 0.1})]:
        obs = E.get_observable(oid, sysc, **kw)
        for n, chunk in [(1, 200), (1, 30), (2, 200), (2, 60)]:
            monkeypatch.setattr(dimension, "_POINT_CHUNK", chunk)
            s = delta * sysc.L ** (-n) / 2.0
            m = math.ceil(1.0 / s)
            want = int(np.count_nonzero(_cellmax_2d(sysc, obs, 0.0, s, m, n) >= alpha))
            assert 0 < want < m * m
            for threads in (1, 2, 3):
                batches.clear()
                lad = E.build_cover_ladder(sysc, obs, 0.0, alpha, delta, n, n, threads=threads)
                assert lad.examined_cells == m * m
                assert lad.entries[0].card == want
                if oid != "cos1":
                    assert len(batches) >= 4                  # two bands or more
                    assert max(b.shape[0] for b in batches) <= max(chunk, 2 * (m + 1))
            # analytic full-space count in 2-d
            full = E.build_cover_ladder(sysc, obs, 0.0, 0.0, delta, n, n)
            assert full.entries[0].card == m * m


def test_only_cos1_takes_the_closed_form(monkeypatch):
    # observables._is_e1 picks a cover's closed form: cos1 on doubling and
    # on cat builds row tables; a cat character (1, 5), cos 2 pi (x + 5 y),
    # is walked, and its cards and examined cells are those of every
    # stencil point's float64 deviation
    tables = []
    row_factor = dimension._row_factor

    def counted(obs, y, coef):
        tables.append(obs.oid)
        return row_factor(obs, y, coef)

    monkeypatch.setattr(dimension, "_row_factor", counted)
    batches = _recording_walk(monkeypatch)
    for sid, alpha, n_lo, n_hi in (("doubling", 0.6, 10, 12), ("cat", 0.4, 1, 3)):
        sysm = E.get_system(sid)
        cos1 = E.get_observable("cos1", sysm)
        tables.clear()
        E.build_cover_ladder(sysm, cos1, 0.0, alpha, E.modulus_delta_for(sysm, cos1, alpha),
                             n_lo, n_hi)
        assert tables and set(tables) == {"cos1"}
    assert not batches
    sysc = E.get_system("cat")
    k15 = E.Observable("k15", lambda p: np.cos(2.0 * math.pi * (p[:, 0] + 5.0 * p[:, 1])),
                       lip=2.0 * math.pi * math.sqrt(26.0), character=(1, 5))
    phibar, alpha, delta = 0.0, 0.8, 0.3
    tables.clear()
    lad = E.build_cover_ladder(sysc, k15, phibar, alpha, delta, 1, 3)
    assert not tables and batches
    examined = 0
    for e in lad.entries:
        s = delta * sysc.L ** (-e.n) / 2.0
        m = math.ceil(1.0 / s)
        examined += m * m
        assert e.card == np.count_nonzero(_cellmax_2d(sysc, k15, phibar, s, m, e.n) >= alpha)
        assert 0 < e.card <= m * m
    assert lad.entries[-1].card < m * m and lad.examined_cells == examined


def test_cover_bands_take_the_thread_count_of_their_set_up(monkeypatch):
    # at threads 2, closed-form levels run their bands on the calling
    # thread and walked levels on the two threads asked for
    pools = []
    pool = dimension.chunk_map

    def spy(fn, starts, threads):
        pools.append(threads)
        return pool(fn, starts, threads)

    monkeypatch.setattr(dimension, "chunk_map", spy)
    for sid, oid, kw, phibar, alpha, n_lo, n_hi, want in (
            ("cat", "cos1", {}, 0.0, 0.4, 1, 3, 1),
            ("doubling", "cos1", {}, 0.0, 0.6, 10, 12, 1),
            ("cat", "bump", {"a": 0.2, "w": 0.1}, 0.3, 0.4, 1, 3, 2),
            ("doubling", "coord", {}, 0.5, 0.2, 8, 12, 2)):
        sysm = E.get_system(sid)
        obs = E.get_observable(oid, sysm, **kw)
        pools.clear()
        E.build_cover_ladder(sysm, obs, phibar, alpha, E.modulus_delta_for(sysm, obs, alpha),
                             n_lo, n_hi, threads=2)
        assert pools == [want] * (n_hi - n_lo + 1), (sid, oid)


def test_cover_csv(tmp_path):
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    lad = E.build_cover_ladder(sysd, cos1, 0.0, 0.0, 0.01, 0, 2, dprimes=(0.5, 1.0))
    path = tmp_path / "cover.csv"
    E.cover_to_csv(lad, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,r_n,card,volume_dprime_0.5,volume_dprime_1"
    assert len(lines) == 4


def test_volume_series_geometric():
    entries = tuple(E.CoverEntry(n, 4.0 ** -n, 2 ** n, ()) for n in range(1, 7))
    lad = E.CoverLadder("doubling", "cos1", 0.0, 0.5, 0.1, 2.0, (), entries, 0)
    # terms 2^-n, ratio 1/2: partial sum + geometric tail is exactly 1
    vs = E.dprime_volume_series(lad, 1.0)
    assert vs.converges
    assert vs.partial_sum == pytest.approx(1.0, abs=1e-12)
    # d' = 0 keeps the raw cards: ratio 2, divergent, no tail added
    vs0 = E.dprime_volume_series(lad, 0.0)
    assert not vs0.converges
    assert vs0.partial_sum == pytest.approx(126.0)


def test_volume_series_edge_rules():
    mk = lambda ent: E.CoverLadder("doubling", "cos1", 0.0, 0.5, 0.1, 2.0, (), ent, 0)
    # ratios above the 0.95 stabilization bar do not count as convergent
    slow = tuple(E.CoverEntry(n, 0.96 ** n, 1, ()) for n in range(1, 8))
    assert not E.dprime_volume_series(mk(slow), 1.0).converges
    # a single positive term carries no ratio evidence
    one = (E.CoverEntry(1, 0.1, 5, ()),)
    vs = E.dprime_volume_series(mk(one), 1.0)
    assert not vs.converges and vs.partial_sum == pytest.approx(0.5)
    # identically zero tail is trivially summable
    zero = tuple(E.CoverEntry(n, 0.1 ** n, 0, ()) for n in range(1, 5))
    vs0 = E.dprime_volume_series(mk(zero), 1.0)
    assert vs0.converges and vs0.partial_sum == 0.0


def test_box_counting_unit_interval():
    scales = [2.0 ** -k for k in range(4, 17)]
    counts = [2 ** k for k in range(4, 17)]
    bd = E.box_counting_dimension(scales, counts)
    assert bd.value == pytest.approx(1.0, abs=0.01)
    assert bd.lower <= 1.0 <= bd.upper


def test_box_counting_cantor_set():
    # depth-k middle-thirds enumeration: 2^k cells of side 3^-k
    scales = [3.0 ** -k for k in range(4, 13)]
    counts = [2 ** k for k in range(4, 13)]
    bd = E.box_counting_dimension(scales, counts)
    assert bd.value == pytest.approx(math.log(2.0) / math.log(3.0), abs=1e-6)
    assert bd.upper - bd.lower < 1e-6            # the points sit on one line


def test_box_counting_degenerate_and_errors():
    scales = [10.0 ** -k for k in range(1, 6)]
    assert E.box_counting_dimension(scales, [1, 1, 1, 1, 1]) == E.BoxDimension(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        E.box_counting_dimension(scales[:3], [1, 2, 4])
    with pytest.raises(ValueError):
        E.box_counting_dimension([0.5, 0.4, 0.3, 0.2], [1, 2, 3, 4])   # < 2 decades
    with pytest.raises(ValueError):
        E.box_counting_dimension(scales, [1, 2, 0, 4, 5])
    with pytest.raises(ValueError):
        E.box_counting_dimension(scales, [1, 2, 3])
    with pytest.raises(ValueError):
        E.box_counting_dimension([-0.1, 0.01, 0.001, 1e-4, 1e-5], [1, 2, 3, 4, 5])


def test_box_counting_refuses_scales_and_counts_by_name_with_the_first_bad_entry():
    scales = [10.0 ** -k for k in range(1, 6)]
    with pytest.raises(ValueError, match=r"^scales must lie in \(0, inf\), got -0\.1$"):
        E.box_counting_dimension([-0.1, 0.01, 0.0, 1e-4, 1e-5], [1, 2, 3, 4, 5])
    with pytest.raises(ValueError, match=r"^counts must lie in \(0, inf\), got 0\.0$"):
        E.box_counting_dimension(scales, [1, 2, 0, 4, -5])
    with pytest.raises(ValueError, match=r"^counts must lie in \(0, inf\), got nan$"):
        E.box_counting_dimension(scales, [1, math.nan, 3, 4, 5])


def test_try_box_dimension_feasibility():
    mk = lambda ent: E.CoverLadder("doubling", "cos1", 0.0, 0.5, 0.1, 2.0, (), ent, 0)
    wide = tuple(E.CoverEntry(n, 2.0 ** -n, 2 ** n, ()) for n in range(1, 9))
    bd = E.try_box_dimension(mk(wide))
    assert bd is not None and bd.value == pytest.approx(1.0, abs=1e-9)
    narrow = tuple(E.CoverEntry(n, 2.0 ** -n, 2 ** n, ()) for n in range(1, 6))
    assert E.try_box_dimension(mk(narrow)) is None     # 1.5 decades of scale
    sparse = tuple(E.CoverEntry(n, 2.0 ** -n, 2 ** n if n < 4 else 0, ())
                   for n in range(1, 9))
    assert E.try_box_dimension(mk(sparse)) is None     # 3 positive cards


def test_besicovitch_eggleston_benchmark():
    be = E.besicovitch_eggleston_dimension(0.25)
    assert be.value == pytest.approx(0.8112781244591328, abs=1e-12)
    depths = [d for d, _ in be.cylinder_estimates]
    ests = [v for _, v in be.cylinder_estimates]
    assert depths == [200, 400, 800]
    assert ests[0] <= ests[1] <= ests[2] <= be.value
    assert be.value - ests[2] <= 0.01
    assert be.confirmed
    # dimension drops to 0 as alpha approaches 1/2, rises to 1 near 0
    assert E.besicovitch_eggleston_dimension(0.01).value > 0.999
    assert E.besicovitch_eggleston_dimension(0.49).value < 0.1
    for bad in (0.0, 0.5, -0.2, 0.7):
        with pytest.raises(ValueError):
            E.besicovitch_eggleston_dimension(bad)


def test_cover_cardinality_bounded_by_rate_dimension():
    # the headline inequality behind the bound: card_n <= C * L^(n d0) with C
    # pinned at the first level and d0 from a Monte-Carlo rate at alpha/2
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    lad = E.build_deviation_ladders(sysd, cos1, 0.0, [0.3], list(range(20, 41, 4)), 50000,
                                    seed=42)[0.3]
    d0 = E.dimension_upper_bound(1, 2.0, E.fit_rate_function(lad).h)
    cover = E.build_cover_ladder(sysd, cos1, 0.0, 0.6,
                                 E.modulus_delta_for(sysd, cos1, 0.6), 10, 14)
    n0, c0 = cover.entries[0].n, cover.entries[0].card
    C = c0 / 2.0 ** (n0 * d0)
    for e in cover.entries:
        assert e.card <= C * 2.0 ** (e.n * d0) * (1.0 + 1e-9)
