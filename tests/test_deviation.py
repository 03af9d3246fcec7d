"""Deviation-set measures: binomial oracle, Monte-Carlo ladders, rate fits."""

import csv
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import ergolab as E
from ergolab import deviation, observables
from ergolab.deviation import METHOD_BINOMIAL, METHOD_MC, default_fit_window
from ergolab.observables import deviations, float32_band, screen
from ergolab.oracle import DIGIT, DIGIT_MEAN
from ergolab.rng import STREAM_SPACE_AVG, raw_blocks
from ergolab.systems import domain_points

CATALOG_SYSTEMS = [("doubling", {}), ("tent", {}), ("cat", {}),
                   ("logistic", {"c": -2.0}), ("logistic", {"c": -1.0}),
                   ("logistic", {"c": 0.2})]
CATALOG_OBSERVABLES = [("cos1", {}), ("coord", {}), ("bump", {"a": 0.05, "w": 0.1})]


def space_points(sys, seed, start, count):
    """Uniform points on the domain from blocks [start, start + count) of
    the space-average stream, as srb_space_average draws them."""
    return domain_points(sys, raw_blocks(seed, STREAM_SPACE_AVG, start, count))


def test_exact_digit_worked_values():
    # n=4: only k in {0, 4} deviate by >= 1/2, so 2/16
    assert E.exact_deviation_measure_digit(0.5, 4) == 0.125
    assert E.exact_deviation_measure_digit(0.5, 2) == 0.5
    assert E.exact_deviation_measure_digit(0.0, 7) == 1.0
    assert E.exact_deviation_measure_digit(0.7, 9) == 0.0
    with pytest.raises(ValueError):
        E.exact_deviation_measure_digit(0.3, 0)


def test_exact_digit_boundary_class_convention():
    # float 0.1 is slightly above 1/10, so at n=10 the classes k=4 and k=6
    # (frequency gap exactly 1/10) fall below the threshold: 2*sum(C(10,k),
    # k<=3)/2^10 = 0.34375.  This pins the "threshold = exact value of the
    # float" convention that keeps the oracle aligned with the estimator.
    assert E.exact_deviation_measure_digit(0.1, 10) == 0.34375
    got = 2.0 * float(stats.binom.cdf(3, 10, 0.5))
    assert got == 0.34375


def test_exact_digit_against_binomial_cdf():
    # independent route: measure = P(X <= k_lo) + P(X >= k_hi), X ~ Bin(n, 1/2)
    rng_cases = [(0.2, 25), (0.15, 40), (0.3, 33), (0.05, 60)]
    from fractions import Fraction
    for alpha, n in rng_cases:
        a = Fraction(float(alpha))
        ks = [k for k in range(n + 1) if abs(Fraction(k, n) - Fraction(1, 2)) >= a]
        want = float(sum(stats.binom.pmf(k, n, 0.5) for k in ks))
        got = E.exact_deviation_measure_digit(alpha, n)
        assert got == pytest.approx(want, rel=1e-12)


def test_exact_digit_ladder_metadata():
    lad = E.exact_digit_ladder(0.2, [10, 20, 30, 40])
    assert lad.system_id == "doubling"
    assert lad.observable_id == DIGIT.oid
    assert lad.phibar == DIGIT_MEAN == 0.5
    assert [e.n for e in lad.entries] == [10, 20, 30, 40]
    for e in lad.entries:
        assert e.method == METHOD_BINOMIAL
        assert e.std_error == 0.0
        assert e.sample_count == 0
    assert lad.entries[0].measure == E.exact_deviation_measure_digit(0.2, 10)


def test_cramer_bernoulli_values():
    assert E.cramer_bernoulli(0.0) == 0.0
    want = math.log(2.0) - (-0.75 * math.log(0.75) - 0.25 * math.log(0.25))
    assert E.cramer_bernoulli(0.25) == pytest.approx(want, rel=1e-15)
    assert E.cramer_bernoulli(0.25) == pytest.approx(0.1308120359411369, abs=1e-12)
    assert E.cramer_bernoulli(0.2) == pytest.approx(0.0822828785050518, abs=1e-12)
    # at and beyond 1/2 the rate saturates at ln 2
    assert E.cramer_bernoulli(0.5) == E.cramer_bernoulli(0.8) == math.log(2.0)
    with pytest.raises(ValueError):
        E.cramer_bernoulli(-0.1)


@pytest.mark.parametrize("alpha", [0.1, 0.2, 0.25, 0.3])
def test_cramer_matches_finite_n_extrapolation(alpha):
    # The exact measures decay like C n^{-1/2} e^{-n h}; the two-scale slope
    # r(n) = (ln m(n) - ln m(2n))/n equals h + (ln 2)/(2n) + O(1/n^2), so one
    # Richardson step 2 r(2n) - r(n) strips the 1/n term.
    def r(n):
        return (math.log(E.exact_deviation_measure_digit(alpha, n))
                - math.log(E.exact_deviation_measure_digit(alpha, 2 * n))) / n

    extrapolated = 2.0 * r(800) - r(400)
    assert extrapolated == pytest.approx(E.cramer_bernoulli(alpha), abs=1e-3)


def test_estimator_agrees_with_exact_oracle():
    sysd = E.get_system("doubling")
    for alpha, n in ((0.5, 4), (0.3, 10)):
        [entry] = E.build_deviation_ladders(sysd, DIGIT, 0.5, [alpha], [n],
                                            sample_count=100000, seed=3)[alpha].entries
        exact = E.exact_deviation_measure_digit(alpha, n)
        assert entry.method == METHOD_MC
        assert abs(entry.measure - exact) <= 4.0 * entry.std_error


def test_estimator_degenerate_thresholds():
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    lads = E.build_deviation_ladders(sysd, cos1, 0.0, [0.0, 2.5], [12], 1000, seed=0)
    [full], [empty] = lads[0.0].entries, lads[2.5].entries
    assert (full.measure, full.std_error) == (1.0, 0.0)
    assert (empty.measure, empty.std_error) == (0.0, 0.0)
    with pytest.raises(ValueError):
        E.build_deviation_ladders(sysd, cos1, 0.0, [0.3], [12], 999, seed=0)


def test_ladder_single_pass_equals_per_horizon():
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    args = (sysd, cos1, 0.0, [0.4])
    lad = E.build_deviation_ladders(*args, [5, 10, 15], 50000, seed=6)[0.4]
    for e in lad.entries:
        [single] = E.build_deviation_ladders(*args, [e.n], 50000, seed=6)[0.4].entries
        assert single.measure == e.measure
        assert single.std_error == e.std_error
    with pytest.raises(ValueError):
        E.build_deviation_ladders(*args, [10, 5], 50000, seed=6)
    with pytest.raises(ValueError):
        E.build_deviation_ladders(*args, [5, 5, 10], 50000, seed=6)


def test_dead_thresholds_check_their_horizons():
    # thresholds no deviation can miss (alpha <= 0) or reach (alpha past
    # observables.max_deviation) are walked like any other, reading 1 and 0,
    # and their horizons are checked as any threshold's are
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    lads = E.build_deviation_ladders(sysd, cos1, 0.0, [3.0, 0.0], [3, 5], 1000, 1)
    assert [e.measure for e in lads[0.0].entries] == [1.0, 1.0]
    assert [e.measure for e in lads[3.0].entries] == [0.0, 0.0]
    with pytest.raises(ValueError, match="n_values entry must be >= 1"):
        E.build_deviation_ladders(sysd, cos1, 0.0, [3.0, 0.0], [0, 3, 5], 1000, 1)
    with pytest.raises(ValueError, match="n_values"):
        E.build_deviation_ladders(sysd, cos1, 0.0, [3.0, 0.0], [3, 5.5], 1000, 1)
    # numpy integers are integers
    lads = E.build_deviation_ladders(sysd, cos1, 0.0, [3.0], np.array([3, 5]), 1000, 1)
    assert [e.n for e in lads[3.0].entries] == [3, 5]
    with pytest.raises(ValueError, match="strictly increasing"):
        E.build_deviation_ladders(sysd, cos1, 0.0, [3.0, 0.0], [5, 3], 1000, 1)
    with pytest.raises(ValueError, match="strictly increasing"):
        E.build_deviation_ladders(sysd, cos1, 0.0, [0.0], [3, 3], 1000, 1)


def test_systems_outside_the_catalog_walk_their_own_ensembles():
    # a System carries its orbit representation: a catalog system renamed
    # keeps it and reads the catalog system's measures, and one built
    # directly gets float64 orbits with no horizon budget
    sysl = E.get_system("logistic", c=-1.7)
    mine = dataclasses.replace(sysl, sid="my-logistic")
    cos1 = E.get_observable("cos1", sysl)
    args = (cos1, 0.1, [0.3, 0.6], [4, 8, 12], 5000, 3)
    want, got = E.build_deviation_ladders(sysl, *args), E.build_deviation_ladders(mine, *args)
    for a in (0.3, 0.6):
        assert got[a].system_id == "my-logistic"
        assert got[a].entries == want[a].entries
    sysd = E.get_system("doubling")
    plain = E.System("my-doubling", 1, "torus", 0.0, 1.0, 2.0, "lebesgue", _step=sysd._step)
    assert plain.ensemble.horizon is None and not plain.ensemble.doubles_phase
    lad = E.build_deviation_ladders(plain, cos1, 0.0, [0.3], [4, 8], 5000, 3)[0.3]
    assert 0.0 < lad.entries[0].measure < 1.0


def test_dyadic_ladders_stop_at_their_precision_budget():
    # past the budget the projected points read zero bits: unchecked, this
    # doubling ladder reads 0.939 at n=200, where the true measure is about 0
    for sid in ("doubling", "tent"):
        sysm = E.get_system(sid)
        budget = sysm.ensemble.horizon
        assert budget == 76
        cos1 = E.get_observable("cos1", sysm)
        with pytest.raises(ValueError, match="n=76"):
            E.build_deviation_ladders(sysm, cos1, 0.0, [0.3], [8, 200], 20000, seed=1)
        with pytest.raises(ValueError):
            E.build_deviation_ladders(sysm, cos1, 0.0, [0.0], [budget + 1], 20000, seed=1)
        lad = E.build_deviation_ladders(sysm, cos1, 0.0, [0.3], [budget], 20000, seed=1)[0.3]
        assert lad.entries[0].measure < 0.01


def test_cat_ladders_stop_at_their_precision_budget():
    # 128-bit cat orbits are faithful for 54 steps (systems._fixed_point_horizon)
    sysc = E.get_system("cat")
    cos1 = E.get_observable("cos1", sysc)
    assert sysc.ensemble.horizon == 54
    lads = E.build_deviation_ladders(sysc, cos1, 0.0, [0.4], [53, 54], 1000, seed=1)
    assert [e.n for e in lads[0.4].entries] == [53, 54]
    with pytest.raises(ValueError, match="horizon 55 is past n=54"):
        E.build_deviation_ladders(sysc, cos1, 0.0, [0.4], [54, 55], 1000, seed=1)


def test_ladder_seed_matters_and_alpha_is_monotone():
    sysc = E.get_system("cat")
    cos1 = E.get_observable("cos1", sysc)
    lads = E.build_deviation_ladders(sysc, cos1, 0.0, [0.2, 0.4, 0.6], [4, 8],
                                     50000, seed=1)
    for j in range(2):
        m = [lads[a].entries[j].measure for a in (0.2, 0.4, 0.6)]
        assert m[0] >= m[1] >= m[2]
    other = E.build_deviation_ladders(sysc, cos1, 0.0, [0.4], [4, 8],
                                      50000, seed=2)
    assert other[0.4].entries[0].measure != lads[0.4].entries[0].measure


def _reference_deviations(sysm, obs, phibar, n_values, count, seed):
    """|S_n / n - phibar| of samples [0, count) at each horizon, by a plain float64 loop."""
    ens = E.sample_orbit_ensemble(sysm, seed, 0, count)
    acc = np.zeros(count)
    devs = {}
    for k in range(1, max(n_values) + 1):
        acc += obs.fn(ens.points())
        if k in n_values:
            devs[k] = np.abs(acc / k - phibar)
        ens.advance()
    return devs


def _recording_draws(monkeypatch):
    """Route the ladder's ensemble draws through a recorder of their `start`."""
    starts = []
    draw = deviation.sample_orbit_ensemble

    def recorded(sysm, seed, start, count, *args, **kwargs):
        starts.append(start)
        return draw(sysm, seed, start, count, *args, **kwargs)

    monkeypatch.setattr(deviation, "sample_orbit_ensemble", recorded)
    return starts


@pytest.mark.parametrize("sid,skw", CATALOG_SYSTEMS)
@pytest.mark.parametrize("oid,okw", CATALOG_OBSERVABLES)
def test_hit_grid_counts_equal_float64_reference(monkeypatch, sid, skw, oid, okw):
    # The float32 filter decides only samples further than the band from a
    # threshold; the rest are recounted in float64, so every count equals the
    # plain float64 loop.  Thresholds set exactly to some sample's deviation
    # put that sample on the threshold, where only the recount classifies it.
    # Only cos1 has the filter (screen); coord and bump walk in float64 and
    # are never recounted.
    sysm = E.get_system(sid, **skw)
    obs = E.get_observable(oid, sysm, **okw)
    count, seed, n_values = 10_000, 17, [1, 3, 8, 15]
    phibar = float(np.mean(obs.fn(space_points(sysm, seed, 0, 4096))))
    devs = _reference_deviations(sysm, obs, phibar, n_values, count, seed)
    ties = [float(devs[n][i]) for n, i in ((1, 11), (3, 222), (8, 3333), (15, 4444),
                                           (15, 9999))]
    alphas = [0.05, 0.2] + ties
    want = np.array([[np.count_nonzero(devs[n] >= a) for n in n_values] for a in alphas])
    monkeypatch.setattr(deviation, "_POINT_CHUNK", 4096)   # three chunks
    starts = _recording_draws(monkeypatch)
    got = deviation._hit_grid(sysm, obs, phibar, alphas, n_values, count, seed)
    assert np.array_equal(got, want)
    # the recount is one draw of index arrays, after the chunks, of samples
    # from more than one chunk (the ties lie in all three)
    recounts = [s for s in starts if np.ndim(s)]
    assert len(recounts) == (oid == "cos1")
    if recounts:
        assert np.ndim(starts[-1]) and np.all(np.diff(recounts[0]) > 0)
        assert len(set((recounts[0] // 4096).tolist())) >= 2


@pytest.mark.parametrize("sid", ["doubling", "tent", "cat"])
def test_hit_grid_equals_the_float64_grid_through_the_budget(monkeypatch, sid):
    # the screened grid, float32 from the word to the threshold counts with
    # each horizon's band, equals the grid of the float64 walk alone at
    # every horizon up to the ensemble's budget, at several seeds and
    # phibars, with thresholds on two samples' float64 deviations at the
    # budget; the float64 grid screens nothing (bands of 0)
    sysm = E.get_system(sid)
    cos1 = E.get_observable("cos1", sysm)
    budget = sysm.ensemble.horizon
    n_values = list(range(4, budget, 6)) + [budget]
    for seed, phibar in [(1, 0.0), (2, 0.013), (3, -0.2)]:
        tied = E.sample_orbit_ensemble(sysm, seed, np.array([5, 12345]), 2)
        *_, ties = deviations(tied, cos1, phibar, np.float64, n_values)
        alphas = [0.6, 0.3, 0.15, 0.05] + ties.tolist()
        args = (sysm, cos1, phibar, alphas, n_values, 20_000, seed)
        assert screen(sysm, cos1, phibar, n_values)[0] == np.float32
        got = deviation._hit_grid(*args)
        with monkeypatch.context() as m:
            m.setattr(deviation, "screen", lambda s, o, p, h: (np.float64, [0.0] * len(h)))
            want = deviation._hit_grid(*args)
        assert np.array_equal(got, want), (seed, phibar)


LADDER_SAMPLES = 3 * 2**16 + 1234     # four chunks, the last ragged


@pytest.mark.parametrize("sid,oid", [("doubling", "cos1"), ("tent", "cos1"), ("cat", "cos1"),
                                     ("doubling", "coord")])
def test_ladders_are_equal_at_any_thread_count(monkeypatch, sid, oid):
    # each chunk of 2^16 samples is one start of systems.chunk_map at the
    # caller's threads, and returns its hits, its band rows per cell and
    # their union, folded in chunk order before the one float64 recount: 1,
    # 2 and 3 threads (3 claim the four chunks unevenly) give the ladders of
    # the float64 walk alone.  At seed 5 most of cos1's cells hold band rows
    # from two to four chunks on every one of these systems; coord walks in
    # float64 and marks nothing.
    sysm = E.get_system(sid)
    obs = E.get_observable(oid, sysm)
    args = (sysm, obs, 0.25 if oid == "coord" else 0.0, [0.3, 0.2, 0.1, 0.05],
            [4, 12, 24, 40], LADDER_SAMPLES, 5)
    with monkeypatch.context() as m:
        m.setattr(deviation, "screen", lambda s, o, p, h: (np.float64, [0.0] * len(h)))
        want = E.build_deviation_ladders(*args)
    pools = []
    pool = deviation.chunk_map

    def spy(fn, starts, threads):
        pools.append(threads)
        return pool(fn, starts, threads)

    monkeypatch.setattr(deviation, "chunk_map", spy)
    draws = _recording_draws(monkeypatch)
    for threads in (1, 2, 3):
        draws.clear()
        assert E.build_deviation_ladders(*args, threads=threads) == want
        assert pools[-1] == threads
        assert sorted(s for s in draws if not np.ndim(s)) == [0, 2**16, 2 * 2**16, 3 * 2**16]
        recounts = [s for s in draws if np.ndim(s)]
        assert len(recounts) == (oid == "cos1")
        if recounts:
            assert set((recounts[0] // 2**16).tolist()) == {0, 1, 2, 3}


@pytest.mark.parametrize("threads", [0, True, 1.5])
def test_ladders_refuse_a_bad_thread_count_by_name(threads):
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    with pytest.raises(ValueError, match=r"^threads must be"):
        E.build_deviation_ladders(sysd, cos1, 0.0, [0.3], [4, 8], 1000, 1, threads=threads)


class _Forwarding:
    """An ensemble wrapper that forwards only points() and advance(), as
    perfbench's traced ensembles do, counting its phase reads."""

    def __init__(self, ens):
        self.phase_reads = 0

        def points(phase=False):
            self.phase_reads += bool(phase)
            return ens.points(phase)

        self.points, self.advance = points, ens.advance


@pytest.mark.parametrize("sid,skw", [("doubling", {}), ("tent", {}), ("cat", {}),
                                     ("logistic", {"c": -1.7})])
def test_doubled_terms_are_read_from_the_catalog(monkeypatch, sid, skw):
    # whether the screen takes its odd-step cos1 terms as 2 c^2 - 1 is read
    # from the system (sys.ensemble), as the catalog builds it, so it holds
    # through a wrapper that forwards only points() and advance(): the
    # screened walk reads phases at even steps only on doubling and tent,
    # at every step on cat and logistic, and its counts equal the float64
    # walk's.  Float batches (time averages, covers, the ball lemma) never
    # ask for doubled terms.
    sysm = E.get_system(sid, **skw)
    cos1 = E.get_observable("cos1", sysm)
    doubles = sid in ("doubling", "tent")
    assert sysm.ensemble.doubles_phase == doubles
    asked = []
    plain_terms = observables.terms

    def recorded_terms(obs, dtype, doubles=False):
        asked.append((np.dtype(dtype), doubles))
        return plain_terms(obs, dtype, doubles)

    monkeypatch.setattr(observables, "terms", recorded_terms)
    walks = []
    draw = deviation.sample_orbit_ensemble

    def forwarded(*args):
        walks.append(_Forwarding(draw(*args)))
        return walks[-1]

    monkeypatch.setattr(deviation, "sample_orbit_ensemble", forwarded)
    n_values = [1, 2, 5, 8]
    tied = draw(sysm, 4, np.array([77]), 1)
    *_, tie = deviations(tied, cos1, 0.0, np.float64, n_values)
    args = (sysm, cos1, 0.0, [0.6, 0.3, float(tie[0])], n_values, 5000, 4)
    asked.clear()
    got = deviation._hit_grid(*args)
    # a chunk of 8 steps, then the recount of the tie on float64 points
    assert [w.phase_reads for w in walks] == [4 if doubles else 8, 0]
    assert asked == [(np.dtype(np.float32), doubles), (np.dtype(np.float64), False)]
    with monkeypatch.context() as m:
        m.setattr(deviation, "screen", lambda s, o, p, h: (np.float64, [0.0] * len(h)))
        assert np.array_equal(got, deviation._hit_grid(*args))
    asked.clear()
    x = space_points(sysm, 4, 0, 100)
    E.time_average(sysm, cos1, x, 6)
    delta = E.modulus_delta_for(sysm, cos1, 0.3)
    E.build_cover_ladder(sysm, cos1, 0.0, 0.3, delta, 1, 2)
    E.verify_ball_lemma(sysm, cos1, 0.0, 0.3, delta, 3, 20, 1)
    assert asked and not any(dbl for _, dbl in asked)


def test_hit_grid_chunk_peak_memory():
    # one 32768-sample chunk of a screened doubling ladder (the thresholds
    # and horizons of perfbench's ladders-deep) stays within the 1.63 MiB
    # tracemalloc peak that the (hi, lo) shift representation reached: the
    # counter blocks (1 MiB) are freed once the limbs are copied out, and
    # the step scratch is made after that
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    args = (sysd, cos1, 0.0, [0.6, 0.3, 0.15], range(8, 73, 4), 32768, 42)
    deviation._hit_grid(*args)                        # first-use imports and caches
    tracemalloc.start()
    try:
        deviation._hit_grid(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_713_500, peak


def test_hit_grid_two_chunks_stay_within_the_one_chunk_peak(monkeypatch):
    # the ladder of test_hit_grid_chunk_peak_memory over two chunks keeps its
    # one-chunk bound: each chunk's ensemble is freed before the next chunk's
    # draw, and the one recount draw, after the last chunk, is small
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    monkeypatch.setattr(deviation, "_POINT_CHUNK", 32768)
    starts = _recording_draws(monkeypatch)
    args = (sysd, cos1, 0.0, [0.6, 0.3, 0.15], range(8, 73, 4), 65536, 42)
    deviation._hit_grid(*args)                        # first-use imports and caches
    assert [s for s in starts if not np.ndim(s)] == [0, 32768]
    tracemalloc.start()
    try:
        deviation._hit_grid(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_713_500, peak


def test_digit_observable_takes_the_exact_path(monkeypatch):
    # no Lipschitz bound, no band: every sample is counted on float64 points
    sysd = E.get_system("doubling")
    assert float32_band(sysd, DIGIT, 1) is None
    dtypes = set()

    def fn(p):
        dtypes.add(p.dtype)
        return DIGIT.fn(p)

    obs = dataclasses.replace(DIGIT, fn=fn)
    starts = _recording_draws(monkeypatch)
    n_values = [2, 5, 9]
    got = deviation._hit_grid(sysd, obs, DIGIT_MEAN, [0.25, 0.5], n_values, 5000, 3)
    devs = _reference_deviations(sysd, DIGIT, DIGIT_MEAN, n_values, 5000, 3)
    want = [[np.count_nonzero(devs[n] >= a) for n in n_values] for a in (0.25, 0.5)]
    assert got.tolist() == want
    assert dtypes == {np.dtype(np.float64)}
    assert starts == [0]                              # one draw, no recount


@pytest.mark.parametrize("sid,skw", CATALOG_SYSTEMS)
def test_only_transcendental_observables_are_screened(monkeypatch, sid, skw):
    # one rule for the ladders, covers and lemma: cos1 is screened in float32,
    # coord and bump run on float64 points only, with no recount
    sysm = E.get_system(sid, **skw)
    starts = _recording_draws(monkeypatch)
    for oid, okw in CATALOG_OBSERVABLES:
        plain = E.get_observable(oid, sysm, **okw)
        dtype, (band,) = screen(sysm, plain, 0.1, [4])
        assert (band > 0.0) == (oid == "cos1")
        assert (dtype == np.float32) == (oid == "cos1")
        if oid == "cos1":
            # past the band's horizons, or from a phibar outside cos1's
            # range, the float64 walk
            assert float32_band(sysm, plain, 2**20 + 1) is None
            assert screen(sysm, plain, 1.5, [4]) == (np.float64, [0.0])
            continue
        dtypes = set()

        def fn(p, _fn=plain.fn):
            dtypes.add(p.dtype)
            return _fn(p)

        obs = dataclasses.replace(plain, fn=fn)
        starts.clear()
        deviation._hit_grid(sysm, obs, 0.1, [0.05, 0.2], [1, 4], 5000, 3)
        assert starts == [0]                          # one draw, no recount
        delta = E.modulus_delta_for(sysm, obs, 0.2)
        E.build_cover_ladder(sysm, obs, 0.1, 0.2, delta, 1, 1)
        E.verify_ball_lemma(sysm, obs, 0.1, 0.2, delta, 3, 20, 1)
        assert dtypes == {np.dtype(np.float64)}, oid


def _edge_coordinates(sysm, oid, okw):
    """0, 1/2, the domain ends and, for bump, the ends of its ramps."""
    hi = np.nextafter(1.0, 0.0) if sysm.domain == "torus" else sysm.hi
    xs = [0.0, 0.5, sysm.lo, hi]
    if oid == "bump":
        c = 0.5 if sysm.domain == "torus" else (sysm.lo + sysm.hi) / 2.0
        for r in (okw["w"] / 2.0, okw["w"] / 2.0 + okw["a"]):
            xs += [c - r, c + r]
    return [x for x in xs if sysm.lo <= x <= hi]


@pytest.mark.parametrize("sid,skw", CATALOG_SYSTEMS)
def test_float32_band_bounds_float32_evaluation(sid, skw):
    # the band is a proven bound; on samples the error stays under a quarter of it
    sysm = E.get_system(sid, **skw)
    rng = np.random.default_rng(8)
    rand = sysm.lo + (sysm.hi - sysm.lo) * rng.random((1_000_000, sysm.d))
    for oid, okw in CATALOG_OBSERVABLES:
        obs = E.get_observable(oid, sysm, **okw)
        xs = _edge_coordinates(sysm, oid, okw)
        edges = np.array(np.meshgrid(*[xs] * sysm.d)).reshape(sysm.d, -1).T
        pts = np.vstack([rand, edges])
        err = np.max(np.abs(obs.fn(pts.astype(np.float32)) - obs.fn(pts)))
        assert err <= float32_band(sysm, obs, 1) / 4.0, (oid, err)


def test_fit_recovers_synthetic_exponential_exactly():
    entries = tuple(E.LadderEntry(n, 1.7 * math.exp(-0.23 * n), 0.0, 0, METHOD_BINOMIAL)
                    for n in range(10, 46, 5))
    lad = E.DeviationLadder("doubling", "digit", 0.5, 0.3, entries)
    fit = E.fit_rate_function(lad)
    assert fit.h == pytest.approx(0.23, abs=1e-12)
    assert fit.C == pytest.approx(1.7, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.residual_max < 1e-10
    assert fit.fit_window == (10, 45)
    assert fit.dropped_zero_entries == 0


def test_fit_window_floors_and_runs():
    # sampled entries need > 5/sample_count: the n=40 rung is too thin to count
    mc = tuple(E.LadderEntry(n, m, 0.0, 100000, METHOD_MC)
               for n, m in ((10, 1e-1), (20, 1e-2), (30, 1e-3), (40, 4e-5)))
    lad = E.DeviationLadder("doubling", "cos1", 0.0, 0.5, mc)
    assert default_fit_window(lad) == (10, 30)
    # window = longest run of usable entries ending at the last usable one
    ex = tuple(E.LadderEntry(n, m, 0.0, 0, METHOD_BINOMIAL)
               for n, m in ((1, 1e-3), (2, 0.0), (3, 1e-4), (4, 1e-5),
                            (5, 1e-6), (6, 1e-7)))
    lad2 = E.DeviationLadder("doubling", "digit", 0.5, 0.4, ex)
    assert default_fit_window(lad2) == (3, 6)
    # exact entries are usable however small; the 10*eps floor is for samples
    tiny = tuple(E.LadderEntry(n, 1e-16 * 10.0 ** -n, 0.0, 0, METHOD_BINOMIAL)
                 for n in range(1, 5))
    assert default_fit_window(E.DeviationLadder("doubling", "digit", 0.5, 0.4, tiny)) == (1, 4)
    mc_tiny = tuple(e._replace(method=METHOD_MC) for e in tiny)
    with pytest.raises(ValueError):
        default_fit_window(E.DeviationLadder("doubling", "cos1", 0.0, 0.4, mc_tiny))
    dead = tuple(E.LadderEntry(n, 0.0, 0.0, 0, METHOD_BINOMIAL) for n in (1, 2, 3, 4))
    with pytest.raises(ValueError):
        default_fit_window(E.DeviationLadder("doubling", "digit", 0.5, 0.4, dead))


def test_fit_deep_exact_ladder_needs_no_window():
    # measures fall to ~1e-30 over 400..800; the default window keeps them all
    lad = E.exact_digit_ladder(0.2, range(400, 801, 4))
    fit = E.fit_rate_function(lad)
    assert fit.fit_window == (400, 800)
    assert fit.r_squared > 0.999
    assert fit.h == pytest.approx(E.cramer_bernoulli(0.2), rel=0.02)


def test_fit_drops_zero_entries_inside_window():
    entries = tuple(E.LadderEntry(n, 0.0 if n == 3 else math.exp(-float(n)), 0.0,
                                  0, METHOD_BINOMIAL)
                    for n in range(1, 7))
    lad = E.DeviationLadder("doubling", "digit", 0.5, 0.4, entries)
    fit = E.fit_rate_function(lad, window=(1, 6))
    assert fit.dropped_zero_entries == 1
    assert fit.h == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        E.fit_rate_function(lad, window=(1, 4))   # only 3 positive entries left


def test_fit_on_exact_ladder_tracks_cramer():
    lad = E.exact_digit_ladder(0.3, range(40, 81, 4))
    fit = E.fit_rate_function(lad)
    href = E.cramer_bernoulli(0.3)
    assert abs(fit.h - href) / href < 0.10
    assert fit.h > href                     # finite-n bias is upward
    assert fit.r_squared > 0.95


def test_ladder_csv_round_trip(tmp_path):
    lad = E.exact_digit_ladder(0.25, [10, 20, 30])
    path = tmp_path / "ladder.csv"
    E.ladder_to_csv(lad, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "measure", "std_error", "samples", "method"]
    assert len(rows) == 4
    for row, e in zip(rows[1:], lad.entries):
        assert int(row[0]) == e.n
        assert float(row[1]) == e.measure    # repr round-trips exactly
        assert float(row[2]) == e.std_error
        assert int(row[3]) == 0
        assert row[4] == METHOD_BINOMIAL
