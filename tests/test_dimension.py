"""Dimension machinery: the d0 bound, ball lemma, cover ladders, box counting,
and the exact digit-frequency benchmark."""

import math

import mpmath
import numpy as np
import pytest

import ergolab as E
from ergolab.deviation import DIGIT
from ergolab.dimension import (_POINT_CHUNK, _children_1d, _dev_points,
                                 _dev_points_mt, _sorted_unique)
from ergolab.errors import GridBudgetError, RateNotEstablishedError


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
    # reachable but far too rare: rejection budget runs out
    rep = E.verify_ball_lemma(sysd, cos1, 0.0, 1.9, 0.01, n=25, pair_count=5,
                              seed=0, candidate_factor=20)
    assert rep.inconclusive
    assert rep.pairs_checked == 0
    assert rep.candidates_drawn == 100
    with pytest.raises(ValueError):
        E.verify_ball_lemma(sysd, cos1, 0.0, 0.4, 0.01, n=0, pair_count=5, seed=0)
    with pytest.raises(ValueError):
        E.verify_ball_lemma(sysd, cos1, 0.0, 0.4, 0.01, n=5, pair_count=0, seed=0)


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
    lad = E.build_cover_ladder(sysd, cos1, 0.0, 2.5, 0.01, 3, 6)
    assert [e.card for e in lad.entries] == [0, 0, 0, 0]
    assert lad.examined_cells == 0


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



def test_cover_dedup_equals_np_unique():
    # overlapping sorted runs, as candidate windows are, wrapped on the torus
    # and clipped on the interval
    rng = np.random.default_rng(8)
    m = 1000
    starts = np.sort(rng.choice(np.arange(-12, m + 4), 300, replace=False))
    runs = (starts[:, None] + np.arange(8)[None, :]).ravel()
    for a in (runs % m, np.clip(runs, 0, m - 1), np.concatenate([runs, runs + 1])):
        assert np.array_equal(_sorted_unique(a), np.unique(a))
    relaxed = np.unique(np.concatenate([[0, 1, 2], rng.integers(0, 400, 80), [398, 399]]))
    for sid in ("doubling", "tent"):
        kids = _children_1d(E.get_system(sid), relaxed, 2.0, 800)
        assert np.array_equal(kids, np.unique(kids))
        assert kids[0] == 0 and kids[-1] == 799


def test_dev_points_chunking_is_invisible():
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    pts = np.random.default_rng(2).random((2 * _POINT_CHUNK + 5, 1))
    whole = _dev_points(sysd, cos1, 0.1, pts, 3)
    for threads in (1, 2):
        assert np.array_equal(_dev_points_mt(sysd, cos1, 0.1, pts, 3, threads), whole)

def test_cover_refines_under_smaller_delta():
    # halving delta halves the cell size at every level: counts cannot drop
    sysd = E.get_system("doubling")
    cos1 = E.get_observable("cos1", sysd)
    delta = E.modulus_delta_for(sysd, cos1, 0.5)
    coarse = E.build_cover_ladder(sysd, cos1, 0.0, 0.5, delta, 8, 8)
    fine = E.build_cover_ladder(sysd, cos1, 0.0, 0.5, delta / 2.0, 8, 8)
    assert fine.entries[0].card >= coarse.entries[0].card


def test_cover_2d_matches_brute_force():
    sysc = E.get_system("cat")
    cos1 = E.get_observable("cos1", sysc)
    alpha, delta, n = 0.4, 0.3, 1
    lad = E.build_cover_ladder(sysc, cos1, 0.0, alpha, delta, n, n)
    s = delta * sysc.L ** (-n) / 2.0
    m = math.ceil(1.0 / s)
    assert lad.examined_cells == m * m
    # brute force: evaluate the full corner grid and the centers directly
    idx = np.arange(m + 1, dtype=float) * s % 1.0
    cx, cy = np.meshgrid(idx, idx, indexing="ij")
    corners = np.stack([cx.ravel(), cy.ravel()], axis=1)
    dev_c = np.abs(E.time_average(sysc, cos1, corners, n)).reshape(m + 1, m + 1)
    cidx = (np.arange(m, dtype=float) + 0.5) * s % 1.0
    mx, my = np.meshgrid(cidx, cidx, indexing="ij")
    centers = np.stack([mx.ravel(), my.ravel()], axis=1)
    dev_m = np.abs(E.time_average(sysc, cos1, centers, n)).reshape(m, m)
    cellmax = np.maximum.reduce([dev_c[:-1, :-1], dev_c[1:, :-1],
                                 dev_c[:-1, 1:], dev_c[1:, 1:], dev_m])
    assert lad.entries[0].card == int(np.count_nonzero(cellmax >= alpha))
    assert lad.entries[0].card > 0
    # analytic full-space count in 2-d
    full = E.build_cover_ladder(sysc, cos1, 0.0, 0.0, delta, n, n)
    assert full.entries[0].card == m * m


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
    # start_n drops early terms
    vs_tail = E.dprime_volume_series(lad, 1.0, start_n=4)
    assert vs_tail.partial_sum == pytest.approx(2.0 ** -4 + 2.0 ** -5 + 2.0 ** -6 + 2.0 ** -6,
                                                abs=1e-12)


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
    lad = E.build_deviation_ladder(sysd, E.DeviationParams(cos1, 0.0, 0.3),
                                   list(range(20, 41, 4)), 50000, seed=42)
    d0 = E.dimension_upper_bound(1, 2.0, E.fit_rate_function(lad).h)
    cover = E.build_cover_ladder(sysd, cos1, 0.0, 0.6,
                                 E.modulus_delta_for(sysd, cos1, 0.6), 10, 14)
    n0, c0 = cover.entries[0].n, cover.entries[0].card
    C = c0 / 2.0 ** (n0 * d0)
    for e in cover.entries:
        assert e.card <= C * 2.0 ** (e.n * d0) * (1.0 + 1e-9)
