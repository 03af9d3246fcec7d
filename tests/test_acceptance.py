"""Desk-scale acceptance checks for the whole package.

Each test covers one numbered criterion and prints a single
``ACCEPTANCE k: PASS/FAIL - detail`` line (run pytest with -v to see them
inline).  Two criteria are sized by a worked analysis in their docstrings:

* criterion 2 fits deep enough that the slope bias of the exact ladder's
  n^{-1/2} prefactor stays under half the rate tolerance,
* criterion 4's negative control takes the radius factor at which the
  worst Birkhoff-average shift across the ball is a fixed multiple of
  alpha/2, so a violation can exist.
"""

import hashlib
import json
import math

import numpy as np
import pytest

import ergolab as E
from ergolab.cli import main
from ergolab.oracle import DIGIT

MC_SAMPLES = 10**6
MC_SEED = 42
SIGMA_HARD = 4.0          # every cell within 4 sigma of the exact value
SIGMA_SOFT = 3.0          # and at least SOFT_FRACTION of cells within 3
SOFT_FRACTION = 0.95
RATE_REL_TOL = 0.10       # fitted h within 10% of the closed form
DOMINANCE_MARGIN = 1e-3   # strict gap between exact dimension and the bound
IDENTITY_TOL = 1e-12
LEMMA_PAIRS = 10**4
NEG_SHIFT_MULTIPLE = 3.0  # negative control: worst ball shift / (alpha/2)
SLOPE_SLACK = 0.10        # cover-growth slope allowance above d0*ln(L)
GRID_BUDGET = 10**8
BOX_TOL = 0.01
FLOW_INT_TOL = 1e-6
CAT_R2_MIN = 0.90
# sha256 of report_json(report, include_timings=False) for the shipped
# configs: a change that moves a report byte on purpose updates these
DOUBLING_REPORT_SHA256 = "7a73d1ddc1f0d7404a4500c286496722c7bcc57de3f3fabcbdb47e2f896deed4"
CAT_REPORT_SHA256 = "47f4cb815fda2b5b107cf23033d604b90cf1404f3bfa26599e5170c827503650"


def _line(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_acceptance_1_estimator_matches_exact_oracle():
    """Monte-Carlo deviation measures sit inside binomial error bars."""
    sysd = E.get_system("doubling")
    ns = list(range(2, 21))
    zs = []
    for alpha in (0.1, 0.3, 0.5):
        lad = E.build_deviation_ladders(sysd, DIGIT, 0.5, [alpha], ns, MC_SAMPLES,
                                        seed=MC_SEED)[alpha]
        for e in lad.entries:
            p = E.exact_deviation_measure_digit(alpha, e.n)
            sig = math.sqrt(p * (1.0 - p) / MC_SAMPLES)
            if sig == 0.0:
                zs.append(0.0 if e.measure == p else math.inf)
            else:
                zs.append(abs(e.measure - p) / sig)
    zs = np.array(zs)
    worst = float(zs.max())
    frac = float(np.mean(zs <= SIGMA_SOFT))
    ok = worst <= SIGMA_HARD and frac >= SOFT_FRACTION
    _line(1, ok, f"{zs.size} cells, worst |z|={worst:.2f}, "
                 f"{frac:.1%} within {SIGMA_SOFT:g} sigma")
    assert worst <= SIGMA_HARD
    assert frac >= SOFT_FRACTION


def test_acceptance_2_rate_recovery_from_exact_ladder():
    """Rate fits on exact digit ladders vs the closed-form Cramer rates.

    The ladder is exact, so the only error is the fit model itself.  The
    exact measure decays like C n^{-1/2} exp(-n h), while the fit is a
    plain line log m = log C - h n; over a finite window the slope absorbs
    the prefactor's drift, a relative bias of about 1/(2 nbar h) at window
    midpoint nbar.  The bias grows as h -> 0: over n = 40..80 it is +5.2%
    at alpha=0.3, +8.7% at 0.2 and +27.0% at 0.1, so no window that short
    recovers h(0.1) ~ 0.0201 to 10%.  Keeping the bias under half the
    tolerance needs nbar >= 1/(RATE_REL_TOL * h(0.1)) ~ 500, hence
    n = 400..800 in steps of 4: measured +3.9%, +1.1% and +0.4%, with
    r^2 >= 0.9976.

    The window is passed explicitly: by n = 800 alpha=0.2 and 0.3 fall to
    ~1e-30 and ~1e-68, and their whole ladders lie below the 10*eps floor
    of default_fit_window, which would raise.
    """
    window = (400, 800)
    rels = {}
    for alpha in (0.1, 0.2, 0.3):
        lad = E.exact_digit_ladder(alpha, range(window[0], window[1] + 1, 4))
        fit = E.fit_rate_function(lad, window=window)
        href = E.cramer_bernoulli(alpha)
        rels[alpha] = (fit.h - href) / href
    detail = ", ".join(f"alpha={a}: {r:+.1%}" for a, r in rels.items())
    worst = max(abs(r) for r in rels.values())
    _line(2, worst <= RATE_REL_TOL, f"{detail} (tol {RATE_REL_TOL:.0%})")
    assert worst <= RATE_REL_TOL, f"rate recovery outside tolerance: {detail}"


def test_acceptance_3_dimension_bound_dominance():
    """The upper bound strictly dominates the exact digit-set dimension."""
    ln2 = math.log(2.0)
    worst_margin = math.inf
    worst_ident = 0.0
    for alpha in (0.1, 0.2, 0.3, 0.4):
        exact = E.besicovitch_eggleston_dimension(alpha).value
        d0 = E.dimension_upper_bound(1, 2.0, E.cramer_bernoulli(alpha / 2.0))
        worst_margin = min(worst_margin, d0 - exact)
        p = 0.5 + alpha / 2.0
        h2 = -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))
        worst_ident = max(worst_ident, abs(d0 - h2 / ln2))
    ok = worst_margin >= DOMINANCE_MARGIN and worst_ident <= IDENTITY_TOL
    _line(3, ok, f"min margin {worst_margin:.4f}, "
                 f"identity residual {worst_ident:.2e}")
    assert worst_margin >= DOMINANCE_MARGIN
    assert worst_ident <= IDENTITY_TOL


def test_acceptance_4_ball_lemma_suite():
    """Deviation transfers to shrunken balls; an enlarged radius need not.

    Positive controls: 10^4 pairs on (doubling, n=10) and (cat, n=8) at
    alpha=0.4 with the modulus radius delta -> zero violations (measured
    worst margins 0.188 and 0.193).

    Negative control: radius F*delta, asserted to produce at least one
    violation on each system.  Across a ball of radius F*delta*L^-n the
    Birkhoff average moves by at most
    (lip_phi*F*delta/n)*(1 - L^-n)/(L - 1).  While that bound is below
    alpha/2, a deviating center pins every neighbour above the alpha/2
    line and no violation exists at any sample size: F = 10 gives 0.1998
    (doubling) and 0.1545 (cat).  At a fixed F the bound falls like 1/n,
    so a longer horizon only shrinks it; room for a violation needs a
    larger factor or a shorter horizon.  F is therefore solved per system
    from the bound, set to NEG_SHIFT_MULTIPLE * alpha/2: F ~ 30.0 for
    doubling and 38.9 for cat.  At 3x, seeds 0-19 gave 518-589 violations
    (doubling) and 242-311 (cat); at 2x, 72-104 and 16-35.
    """
    alpha = 0.4
    neg_violations = {}
    for sid, n in (("doubling", 10), ("cat", 8)):
        s = E.get_system(sid)
        obs = E.get_observable("cos1", s)
        delta = E.modulus_delta_for(s, obs, alpha)
        pos = E.verify_ball_lemma(s, obs, 0.0, alpha, delta, n,
                                  LEMMA_PAIRS, seed=42)
        assert pos.pairs_checked == LEMMA_PAIRS
        assert pos.violations == 0, f"{sid}: positive control violated"
        assert pos.worst_margin > 0.0
        shift_per_factor = (obs.lip * delta / n) * (1.0 - s.L ** -n) / (s.L - 1.0)
        factor = NEG_SHIFT_MULTIPLE * (alpha / 2.0) / shift_per_factor
        neg = E.verify_ball_lemma(s, obs, 0.0, alpha, factor * delta, n,
                                  LEMMA_PAIRS, seed=42)
        neg_violations[sid] = (round(factor, 1), neg.violations)
    ok = all(v >= 1 for _, v in neg_violations.values())
    _line(4, ok, f"positive controls clean; negative control "
                 f"(factor, violations) {neg_violations} (need >= 1 each)")
    for sid, (factor, v) in neg_violations.items():
        assert v >= 1, f"{sid}: {factor}x-radius negative control produced no violation"


def test_acceptance_5_cover_cardinality_scaling():
    """Cover cardinalities grow no faster than the dimension bound predicts."""
    sysd = E.get_system("doubling")
    obs = E.get_observable("cos1", sysd)
    lad = E.build_deviation_ladders(sysd, obs, 0.0, [0.3], list(range(20, 61, 4)),
                                    MC_SAMPLES, MC_SEED)[0.3]
    d0 = E.dimension_upper_bound(1, sysd.L, E.fit_rate_function(lad).h)
    delta = E.modulus_delta_for(sysd, obs, 0.6)
    cov = E.build_cover_ladder(sysd, obs, 0.0, 0.6, delta, 10, 24,
                               budget=GRID_BUDGET, dprimes=(d0 + 0.1,),
                               threads=8)
    assert cov.examined_cells <= GRID_BUDGET
    ns = np.array([e.n for e in cov.entries], dtype=float)
    cards = np.array([e.card for e in cov.entries], dtype=float)
    slope = float(np.polyfit(ns, np.log(cards), 1)[0])
    cap = d0 * math.log(sysd.L) + SLOPE_SLACK
    series = E.dprime_volume_series(cov, d0 + 0.1)
    control = E.dprime_volume_series(
        E.build_cover_ladder(sysd, obs, 0.0, 0.0, delta, 1, 40,
                             dprimes=(d0 + 0.1,)), d0 + 0.1)
    ok = slope <= cap and series.converges and not control.converges
    _line(5, ok, f"slope {slope:.4f} <= {cap:.4f}, d'-series sum "
                 f"{series.partial_sum:.4f} converges, full-space control "
                 f"diverges ({control.partial_sum:.1f} and climbing)")
    assert slope <= cap
    assert series.converges
    assert not control.converges


def test_acceptance_6_box_counting_calibration():
    """Known ladders: the unit interval and the depth-12 middle-thirds set."""
    ks = np.arange(1, 13)
    interval = E.box_counting_dimension(0.5 ** ks, 2.0 ** ks).value
    cantor = E.box_counting_dimension(3.0 ** -ks, 2.0 ** ks).value
    ok = abs(interval - 1.0) <= BOX_TOL and abs(cantor - 0.6309) <= BOX_TOL
    _line(6, ok, f"interval {interval:.4f} (want 1.0000), "
                 f"middle-thirds {cantor:.4f} (want 0.6309)")
    assert abs(interval - 1.0) <= BOX_TOL
    assert abs(cantor - 0.6309) <= BOX_TOL


def test_acceptance_7_flow_reduction_suite():
    """Unit-roof suspension: flow averages reduce to map averages."""
    sysd = E.get_system("doubling")
    obs = E.get_observable("cos1", sysd)
    flow = E.SuspensionFlow(sysd, E.constant_roof(1.0))
    fobs = E.fiber_constant(obs)

    xs = E.sample_orbit_ensemble(sysd, 11, 0, 100).points().ravel()
    worst_int = 0.0
    for T in (3, 17, 50):
        map_avg = E.time_average(sysd, obs, xs, T)
        for x, m in zip(xs, map_avg):
            favg = E.flow_time_average(flow, fobs, E.FlowState(float(x), 0.0),
                                       float(T))
            worst_int = max(worst_int, abs(favg - m))

    states, extra = E.sample_flow_states(flow, 7, 0, 1000)
    horizons = 2.0 + 98.0 * extra
    part_bad = sum(
        not E.integer_part_reduction_check(flow, fobs, st, float(T)).ok
        for st, T in zip(states, horizons))
    incl_bad = sum(
        not E.flow_nontypical_inclusion_check(flow, fobs, 0.0, 0.3, st, 50.0).ok
        for st in states)

    ok = worst_int <= FLOW_INT_TOL and part_bad == 0 and incl_bad == 0
    _line(7, ok, f"integer-T mismatch {worst_int:.1e}, integer-part "
                 f"failures {part_bad}/1000, inclusion failures {incl_bad}/1000")
    assert worst_int <= FLOW_INT_TOL
    assert part_bad == 0
    assert incl_bad == 0


def test_acceptance_8_report_thread_determinism(tmp_path):
    """The canonical end-to-end report is thread-count invariant."""
    payloads = []
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        code = main(["report", "--config", "configs/doubling.ini",
                     "--threads", str(threads), "--out", str(out)])
        assert code == 0
        data = json.loads((out / "report.json").read_text())
        assert data["verdict"] == "bound-holds"
        data.pop("timings")
        payloads.append(json.dumps(data, sort_keys=False))
        # report.json less its timings, laid out as report_json lays it out
        digest = hashlib.sha256(json.dumps(data, sort_keys=True, indent=2).encode()).hexdigest()
        assert digest == DOUBLING_REPORT_SHA256, threads
    ok = payloads[0] == payloads[1]
    _line(8, ok, "report.json byte-identical for --threads 1 vs 8 "
                 "(timings excluded) and equal to the pinned hash, verdict bound-holds")
    assert payloads[0] == payloads[1]


def test_acceptance_9_cat_map_smoke_experiment():
    """Full pipeline on the torus automorphism: consistent, not falsifying."""
    rep = E.run_pipeline(E.load_config("configs/cat.ini"), threads=8)
    data = rep.data
    fits = {key: data["ladders"][key]["fit"] for key in ("0.4", "0.2")}
    dim = data["dimension"]
    ok = (all(f["h"] > 0.0 and f["r_squared"] >= CAT_R2_MIN
              for f in fits.values())
          and dim["d0"] is not None and dim["d0"] < 2.0
          and data["verdict"] != "bound-violated"
          and data["cover"]["examined_cells"] <= GRID_BUDGET)
    _line(9, ok, f"h(0.4)={fits['0.4']['h']:.4f} (r2 {fits['0.4']['r_squared']:.3f}), "
                 f"h(0.2)={fits['0.2']['h']:.4f} (r2 {fits['0.2']['r_squared']:.3f}), "
                 f"d0={dim['d0']:.4f} < 2, verdict {data['verdict']}")
    for key, f in fits.items():
        assert f["h"] > 0.0, f"alpha={key} fit is not a decay rate"
        assert f["r_squared"] >= CAT_R2_MIN
    assert dim["d0"] < 2.0
    assert data["verdict"] != "bound-violated"
    assert data["cover"]["examined_cells"] <= GRID_BUDGET
    digest = hashlib.sha256(E.report_json(rep, include_timings=False).encode()).hexdigest()
    assert digest == CAT_REPORT_SHA256
