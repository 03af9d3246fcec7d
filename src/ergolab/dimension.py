"""Dimension bounds for deviation sets and their empirical verification.

The chain this module implements:

    rate h  --->  d0 = d - h(alpha/2) / ln L      (dimension upper bound)
                   |
                   +--- ball lemma: near any point that deviates by alpha,
                   |    every point of a small dynamical ball deviates by
                   |    at least alpha/2 (radius delta * L^-n, with delta
                   |    from the observable's modulus of continuity)
                   |
                   +--- cover ladders: cells of size ~ delta * L^-n that
                   |    meet the deviation set, counted per level; their
                   |    log-cardinality growth and d'-volume sums give an
                   |    empirical box dimension to compare against d0
                   |
                   +--- exact benchmark: Besicovitch-Eggleston dimension of
                        binary digit-frequency deviation sets

Cover sweeps detect a cell when the deviation at any stencil point (the
cell's corners and center) reaches the threshold; this is an empirical,
slightly conservative cardinality (a cell can meet the set while every
stencil point misses it).  Levels are pruned hierarchically: level n+1 is
only examined underneath cells that pass a *relaxed* threshold at level n,
chosen (one-step telescope of averages plus the Lipschitz bound of the
n-step average over a cell) so that no cell detectable at the report
threshold is ever lost.  Pruning is what keeps deep ladders inside the
cell-evaluation budget.

Every cell and candidate test is a comparison of a stencil point's
deviation with a threshold (alpha and tau_n in 1-d, alpha in 2-d and in
the ball lemma's candidate screen), and cellmax >= t holds iff some
stencil point reaches t.  So where observables.screen_band gives a band
(cos1), orbits stay float64 but the observable runs on float32 points; a
float32 deviation more than the band from every threshold compares with
each threshold as its float64 value does, and only the points within the
band are recomputed in float64.  Cards, relaxed sets and lemma reports are
those of the float64 walk; the lemma's ball points, whose deviations are
reported, are evaluated in float64 only.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .deviation import LN2, digit_deviation_count, write_csv
from .errors import GridBudgetError, RateNotEstablishedError
from .observables import Observable, screen_band
from .rng import STREAM_LEMMA_BALLS, STREAM_LEMMA_POINTS, raw_blocks, uniform01
from .systems import System, _FloatOrbits, birkhoff_sums, domain_points, wrap_unit

# beyond this many doublings of scale, float64 probe points have no
# significant bits left for the orbit to act on
_MAX_DEPTH_BITS = 45.0

_POINT_CHUNK = 1 << 16


def dimension_upper_bound(d: int, L: float, h: float) -> float:
    """d - h / ln L: the dimension bound fed by a positive decay rate.

    A non-positive rate means exponential decay was never established and
    no bound follows (RateNotEstablishedError).
    """
    if d < 1:
        raise ValueError("need dimension d >= 1")
    if L <= 1.0:
        raise ValueError("need expansion base L > 1")
    if h <= 0.0:
        raise RateNotEstablishedError(f"decay rate h={h} is not positive")
    return d - h / math.log(L)


# ---------------------------------------------------------------------------
# ball lemma

@dataclass(frozen=True)
class BallLemmaReport:
    alpha: float
    n: int
    delta: float
    radius: float
    pairs_requested: int
    pairs_checked: int
    candidates_drawn: int
    violations: int
    worst_margin: float
    inconclusive: bool


def _dev_points(sys, obs, phibar, pts, n, thresholds=(), band=None):
    """Deviation of an (N, d) float64 batch at horizon n (no domain check).

    With a float32 band, fn runs on float32 points of the float64 orbits and
    the rows within the band of a threshold are recomputed in float64: each
    returned value compares with each threshold as its float64 value does.
    """
    fn = obs.fn if band is None else (lambda p: obs.fn(p.astype(np.float32)))
    dev = np.abs(next(birkhoff_sums(_FloatOrbits(sys, pts), fn, [n])) / n - phibar)
    if band is None:
        return dev
    near = np.zeros(dev.shape, dtype=bool)
    for t in thresholds:
        near |= np.abs(dev - t) <= band
    rows = np.flatnonzero(near)
    if rows.size:
        dev[rows] = _dev_points(sys, obs, phibar, pts[rows], n)
    return dev


def _dev_points_mt(sys, obs, phibar, pts, n, threads, thresholds=()):
    """Deviations for threshold tests, in chunks that bound the working set.

    With no thresholds these are the float64 values of _dev_points.  With
    thresholds, and a float32 screen for the observable (screen_band), the
    returned deviations are screened: their comparisons (>=, >, <) with each
    threshold, not their values, equal those of the float64 values.  Values
    are elementwise, so neither the chunking nor the thread count changes
    any comparison.
    """
    band = screen_band(sys, obs) if thresholds else None

    def dev(c):
        return _dev_points(sys, obs, phibar, c, n, thresholds, band)

    if pts.shape[0] <= _POINT_CHUNK:
        return dev(pts)
    out = np.empty(pts.shape[0])

    def fill(i):
        out[i:i + _POINT_CHUNK] = dev(pts[i:i + _POINT_CHUNK])

    starts = range(0, pts.shape[0], _POINT_CHUNK)
    if threads <= 1:
        for i in starts:
            fill(i)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, starts))
    return out


def verify_ball_lemma(sys: System, obs: Observable, phibar: float, alpha: float,
                      delta: float, n: int, pair_count: int, seed: int,
                      candidate_factor: int = 200) -> BallLemmaReport:
    """Sample (x, y) pairs with y in the dynamical ball around a deviating x.

    Candidates x are drawn uniformly and accepted when their deviation at
    horizon n reaches alpha; each accepted x gets one uniform y within
    radius delta * L^-n.  A pair violates when y's deviation falls below
    alpha/2.  If the rejection budget (candidate_factor * pair_count draws)
    is exhausted with no acceptance, the check is inconclusive rather than
    failed — the deviation set was simply too thin to hit.  Candidates are
    screened in float32 where the observable has a screen (see the module
    docstring); y's deviations, reported through worst_margin, are float64.
    """
    if n < 1:
        raise ValueError("need horizon n >= 1")
    if pair_count < 1:
        raise ValueError("need pair_count >= 1")
    radius = delta * sys.L ** (-n)
    if alpha > 2.0 * obs.sup_abs:
        # deviations cannot reach alpha: nothing to sample
        return BallLemmaReport(alpha, n, delta, radius, pair_count, 0, 0, 0,
                               math.inf, True)

    band = screen_band(sys, obs)
    max_draws = candidate_factor * pair_count
    batch = 8192
    drawn = 0
    accepted = []
    while drawn < max_draws and sum(len(a) for a in accepted) < pair_count:
        m = min(batch, max_draws - drawn)
        pts = domain_points(sys, raw_blocks(seed, STREAM_LEMMA_POINTS, drawn, m))
        dev = _dev_points(sys, obs, phibar, pts, n, (alpha,), band)
        accepted.append(pts[dev >= alpha])
        drawn += m
    xs = np.concatenate(accepted) if accepted else np.empty((0, sys.d))
    xs = xs[:pair_count]
    if xs.shape[0] == 0:
        return BallLemmaReport(alpha, n, delta, radius, pair_count, 0, drawn, 0,
                               math.inf, True)

    blocks = raw_blocks(seed, STREAM_LEMMA_BALLS, 0, xs.shape[0])
    if sys.d == 1:
        off = (2.0 * uniform01(blocks[:, 0:1]) - 1.0) * radius
    else:
        u1 = uniform01(blocks[:, 0])
        u2 = uniform01(blocks[:, 1])
        rho = radius * np.sqrt(u1)
        off = np.stack([rho * np.cos(2.0 * math.pi * u2),
                        rho * np.sin(2.0 * math.pi * u2)], axis=1)
    ys = xs + off
    if sys.domain == "torus":
        ys = wrap_unit(ys)
    else:
        ys = np.clip(ys, sys.lo, sys.hi)
    dev_y = _dev_points(sys, obs, phibar, ys, n)
    margins = dev_y - alpha / 2.0
    return BallLemmaReport(alpha, n, delta, radius, pair_count,
                           int(xs.shape[0]), drawn,
                           int(np.count_nonzero(margins < 0.0)),
                           float(np.min(margins)), False)


# ---------------------------------------------------------------------------
# cover ladders

@dataclass(frozen=True)
class CoverEntry:
    n: int
    r_n: float
    card: int
    volumes: tuple  # ((dprime, card * r_n**dprime), ...)


@dataclass(frozen=True)
class CoverLadder:
    system_id: str
    observable_id: str
    phibar: float
    alpha: float
    delta: float
    L: float
    dprimes: tuple
    entries: tuple
    examined_cells: int


def _prune_thresholds(alpha, n_lo, n_hi, lip_phi, W, L, delta, d):
    """Relaxed detection thresholds tau_n, built backward from tau_{n_hi}=alpha.

    One step of the telescope (n+1) * avg_{n+1} = n * avg_n + phi(f^n x)
    costs (W - tau)/n of deviation, and moving from a point to the nearest
    stencil point of its cell costs at most Lip(avg_n) * (stencil gap),
    bounded by lip_phi * delta * sqrt(d) / (4 n (L-1)).
    """
    taus = {n_hi: alpha}
    for n in range(n_hi - 1, n_lo - 1, -1):
        t_next = taus[n + 1]
        slack = lip_phi * delta * math.sqrt(d) / (4.0 * n * (L - 1.0))
        taus[n] = t_next - (W - t_next) / n - slack
    return taus


def _grid_cells(sys, s):
    length = 1.0 if sys.domain == "torus" else sys.hi - sys.lo
    return math.ceil(length / s)


def _grid_points(sys, idx, s):
    pts = idx.astype(np.float64)[:, None]
    pts *= s
    pts += sys.lo
    if sys.domain == "torus":
        # pts >= 0, where pts - floor(pts) is exactly pts % 1.0, and faster
        pts -= np.floor(pts)
        return pts
    return np.clip(pts, sys.lo, sys.hi, out=pts)


def _cover_level_1d(sys, obs, phibar, alpha, tau, s, m, n, cand, threads):
    """Detect cells at one 1-d level.  Returns (card, relaxed-detected cells).

    cand is sorted and unique, so its corners (cand and cand + 1, merged) are
    laid out without a sort: cell i's left corner sits at i plus the number
    of gaps in cand before it, and its right corner just after.
    """
    left = np.arange(cand.size, dtype=np.int64)
    left[1:] += np.cumsum(np.diff(cand) > 1)
    corner_idx = np.empty(left[-1] + 2 if cand.size else 0, dtype=np.int64)
    corner_idx[left] = cand
    corner_idx[left + 1] = cand + 1
    cpts = _grid_points(sys, corner_idx, s)
    mid = _grid_points(sys, cand.astype(np.float64) + 0.5, s)
    dev_c = _dev_points_mt(sys, obs, phibar, cpts, n, threads, (alpha, tau))
    dev_m = _dev_points_mt(sys, obs, phibar, mid, n, threads, (alpha, tau))
    cellmax = np.maximum(np.maximum(dev_c[left], dev_c[left + 1]), dev_m)
    card = int(np.count_nonzero(cellmax >= alpha))
    relaxed = cand[cellmax >= tau]
    return card, relaxed


def _union_runs(lo, hi):
    """Disjoint, sorted, non-touching runs covering the union of [lo, hi), lo sorted."""
    reach = np.maximum.accumulate(hi)
    first = np.ones(lo.shape, dtype=bool)
    np.greater(lo[1:], reach[:-1], out=first[1:])
    last = np.flatnonzero(np.append(first[1:], lo.size > 0))
    return lo[first], reach[last]


def _children_1d(sys, relaxed, ratio, m_next):
    """Child candidates one level down, padded a full parent cell each side.

    Each sorted parent gives the window [base, base + width) of child
    indices.  The windows are clipped to [0, m_next) (interval) or wrapped
    onto it (torus: a window crossing the end becomes two), merged into runs
    and the runs expanded: the sorted unique children, without sorting them.
    """
    width = int(math.ceil(3.0 * ratio)) + 2
    lo = np.floor((relaxed.astype(np.float64) - 1.0) * ratio).astype(np.int64)
    if sys.domain == "torus":
        lo %= m_next
        hi = lo + min(width, m_next)          # a window the size of the circle covers it
        over = hi > m_next
        lo = np.concatenate([lo, np.zeros(np.count_nonzero(over), dtype=np.int64)])
        hi = np.concatenate([np.minimum(hi, m_next), hi[over] - m_next])
        order = np.argsort(lo, kind="stable")   # nearly sorted: the wrap moves a few
        lo, hi = lo[order], hi[order]
    else:
        lo, hi = np.clip(lo, 0, m_next - 1), np.clip(lo + width, 1, m_next)
    lo, hi = _union_runs(lo, hi)
    lens = hi - lo
    return np.arange(lens.sum(), dtype=np.int64) + np.repeat(lo - (np.cumsum(lens) - lens), lens)


def _grid_2d(rows, cols):
    """The (len(rows) * len(cols), 2) points (row, col), row-major."""
    pts = np.empty((rows.size, cols.size, 2))
    pts[:, :, 0] = rows[:, None]
    pts[:, :, 1] = cols[None, :]
    return pts.reshape(-1, 2)


def _cover_level_2d(sys, obs, phibar, alpha, s, m, n, threads):
    """Dense sweep of one 2-d level in row bands; returns the cell count."""
    card = 0
    band = max(1, (1 << 22) // (m + 1))
    cols = np.arange(m + 1, dtype=np.float64) * s
    ccols = (np.arange(m, dtype=np.float64) + 0.5) * s
    if sys.domain == "torus":
        cols = cols % 1.0
        ccols = ccols % 1.0
    prev = None  # corner-row devs shared between consecutive bands
    for r0 in range(0, m, band):
        r1 = min(r0 + band, m)
        rows = np.arange(r0, r1 + 1, dtype=np.float64) * s
        crows = (np.arange(r0, r1, dtype=np.float64) + 0.5) * s
        if sys.domain == "torus":
            rows = rows % 1.0
            crows = crows % 1.0
        if prev is None:
            row_lo = 0
        else:
            row_lo = 1  # first corner row equals the previous band's last
        dev_c = _dev_points_mt(sys, obs, phibar, _grid_2d(rows[row_lo:], cols), n,
                               threads, (alpha,))
        dgrid = dev_c.reshape(r1 - r0 + 1 - row_lo, m + 1)
        if prev is not None:
            dgrid = np.vstack([prev, dgrid])
        dev_m = _dev_points_mt(sys, obs, phibar, _grid_2d(crows, ccols), n,
                               threads, (alpha,)).reshape(r1 - r0, m)
        cellmax = np.maximum(dgrid[:-1, :-1], dgrid[1:, :-1])
        for part in (dgrid[:-1, 1:], dgrid[1:, 1:], dev_m):
            np.maximum(cellmax, part, out=cellmax)
        card += int(np.count_nonzero(cellmax >= alpha))
        prev = dgrid[-1:, :]
    return card


def build_cover_ladder(sys: System, obs: Observable, phibar: float, alpha: float,
                       delta: float, n_lo: int, n_hi: int,
                       budget: int = 10**8, dprimes=(), threads: int = 1) -> CoverLadder:
    """Count grid cells meeting the deviation set at scales r_n = delta * L^-n.

    Cells have side r_n / 2; a cell is counted when the deviation at one of
    its stencil points (corners + center) reaches alpha.  Levels run from
    n_lo to n_hi; in 1-d, levels after the first examine only children of
    cells passing the relaxed thresholds (see _prune_thresholds), in 2-d
    every level is swept densely.  The budget caps the total number of
    cells examined; a level that would exceed it raises GridBudgetError
    before any of its cells are evaluated.

    alpha <= 0 short-circuits analytically: every cell meets the set, cards
    are full grid sizes, and nothing is evaluated or charged against the
    budget.  alpha > 2 sup|phi| likewise yields empty levels for free.
    """
    if n_hi < n_lo:
        raise ValueError("need n_hi >= n_lo")
    L = sys.L
    dprimes = tuple(float(dp) for dp in dprimes)

    def entry(n, card):
        r = delta * L ** (-n)
        return CoverEntry(n, r, card, tuple((dp, card * r**dp) for dp in dprimes))

    if alpha <= 0.0:
        entries = [entry(n, _grid_cells(sys, delta * L ** (-n) / 2.0) ** sys.d)
                   for n in range(n_lo, n_hi + 1)]
        return CoverLadder(sys.sid, obs.oid, phibar, alpha, delta, L, dprimes,
                           tuple(entries), 0)
    if alpha > 2.0 * obs.sup_abs:
        entries = [entry(n, 0) for n in range(n_lo, n_hi + 1)]
        return CoverLadder(sys.sid, obs.oid, phibar, alpha, delta, L, dprimes,
                           tuple(entries), 0)

    if obs.lip is None:
        raise ValueError(f"observable {obs.oid!r} has no Lipschitz bound; covers need one")
    if n_lo < 1:
        raise ValueError("cover levels need n >= 1 when alpha > 0")
    if n_hi * math.log2(L) > _MAX_DEPTH_BITS:
        raise ValueError(f"cover level {n_hi} exceeds float64 orbit resolution for L={L}")
    if sys.d > 2:
        raise ValueError("covers support d <= 2")
    if delta <= 0.0:
        raise ValueError("need delta > 0")

    W = obs.sup_abs + abs(phibar)
    taus = _prune_thresholds(alpha, n_lo, n_hi, obs.lip, W, L, delta, sys.d)
    examined = 0
    entries = []
    cand = None  # None means: sweep this level densely
    for n in range(n_lo, n_hi + 1):
        s = delta * L ** (-n) / 2.0
        m = _grid_cells(sys, s)
        if sys.d == 2:
            cells = m * m
            if examined + cells > budget:
                raise GridBudgetError(
                    f"level n={n} needs {cells} cells; {budget - examined} left of budget {budget}")
            examined += cells
            card = _cover_level_2d(sys, obs, phibar, alpha, s, m, n, threads)
            entries.append(entry(n, card))
            continue
        if cand is None:
            cand = np.arange(m, dtype=np.int64)
        cells = len(cand)
        if examined + cells > budget:
            raise GridBudgetError(
                f"level n={n} needs {cells} cells; {budget - examined} left of budget {budget}")
        examined += cells
        card, relaxed = _cover_level_1d(sys, obs, phibar, alpha, taus[n], s, m, n,
                                        cand, threads)
        entries.append(entry(n, card))
        if n < n_hi:
            if taus[n] <= 0.0:
                cand = None  # relaxed threshold is vacuous: next level is dense
            else:
                m_next = _grid_cells(sys, delta * L ** (-(n + 1)) / 2.0)
                cand = _children_1d(sys, relaxed, L, m_next)
    return CoverLadder(sys.sid, obs.oid, phibar, alpha, delta, L, dprimes,
                       tuple(entries), examined)


COVER_CSV_BASE_COLUMNS = ("n", "r_n", "card")


def cover_section(ladder: CoverLadder) -> dict:
    """A cover ladder as the report stores it, volumes keyed by repr(dprime)."""
    return {
        "alpha": ladder.alpha, "delta": ladder.delta, "L": ladder.L,
        "examined_cells": ladder.examined_cells,
        "dprimes": list(ladder.dprimes),
        "entries": [{"n": e.n, "r_n": e.r_n, "card": e.card,
                     "volumes": {repr(dp): v for dp, v in e.volumes}}
                    for e in ladder.entries]}


def cover_table(section: dict):
    """CSV columns and rows of a cover ladder in its report form (see cover_section)."""
    dprimes = section["dprimes"]
    columns = list(COVER_CSV_BASE_COLUMNS) + [f"volume_dprime_{dp:g}" for dp in dprimes]
    rows = [[e["n"], e["r_n"], e["card"]] + [e["volumes"][repr(dp)] for dp in dprimes]
            for e in section["entries"]]
    return columns, rows


def cover_to_csv(ladder: CoverLadder, path):
    write_csv(path, *cover_table(cover_section(ladder)))


# ---------------------------------------------------------------------------
# d'-volume series and box dimension

@dataclass(frozen=True)
class VolumeSeries:
    dprime: float
    partial_sum: float
    converges: bool


def dprime_volume_series(ladder: CoverLadder, dprime: float,
                         start_n: int | None = None) -> VolumeSeries:
    """Partial sum of card_n * r_n^d' with a geometric tail estimate.

    The sum runs over entries with n >= start_n.  When the last ratio of
    consecutive positive terms is below 1, a geometric tail bound
    (last term * rho / (1 - rho)) is folded into the partial sum.
    `converges` requires the last few (up to 3) ratios to stabilize below
    0.95; with no ratio evidence it is True only for an identically zero
    tail.
    """
    dprime = float(dprime)
    entries = [e for e in ladder.entries if start_n is None or e.n >= start_n]
    terms = [e.card * e.r_n**dprime for e in entries]
    positive = [t for t in terms if t > 0.0]
    total = float(sum(terms))
    if len(positive) < 2:
        return VolumeSeries(dprime, total, total == 0.0)
    ratios = [b / a for a, b in zip(positive[:-1], positive[1:])]
    rho = ratios[-1]
    if rho < 1.0:
        total += positive[-1] * rho / (1.0 - rho)
    tail = ratios[-min(3, len(ratios)):]
    return VolumeSeries(dprime, total, all(r <= 0.95 for r in tail))


@dataclass(frozen=True)
class BoxDimension:
    value: float
    lower: float
    upper: float


def box_counting_dimension(scales, counts) -> BoxDimension:
    """Slope of log(count) against log(1/scale), with a 2-sigma slope band.

    Needs at least 4 scales spanning at least two decades, and positive
    counts.  All-equal counts (e.g. a single occupied cell at every scale)
    give dimension 0 exactly.
    """
    s = np.asarray(scales, dtype=np.float64)
    c = np.asarray(counts, dtype=np.float64)
    if s.shape != c.shape or s.ndim != 1:
        raise ValueError("scales and counts must be 1-d arrays of equal length")
    if s.shape[0] < 4:
        raise ValueError("need at least 4 scales")
    if np.any(s <= 0.0):
        raise ValueError("scales must be positive")
    if np.any(c <= 0.0):
        raise ValueError("counts must be positive")
    if math.log10(float(np.max(s)) / float(np.min(s))) < 2.0:
        raise ValueError("scales must span at least two decades")
    if np.all(c == c[0]):
        return BoxDimension(0.0, 0.0, 0.0)
    x = np.log(1.0 / s)
    y = np.log(c)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(s.shape[0] - 2, 1)
    sxx = float(np.sum((x - x.mean()) ** 2))
    se = math.sqrt(float(np.sum(resid * resid)) / dof / sxx)
    return BoxDimension(float(slope), float(slope - 2.0 * se), float(slope + 2.0 * se))


def try_box_dimension(ladder: CoverLadder) -> BoxDimension | None:
    """Box dimension of a cover ladder, or None when the ladder can't support one."""
    pos = [(e.r_n, e.card) for e in ladder.entries if e.card > 0]
    if len(pos) < 4:
        return None
    scales = [r for r, _ in pos]
    counts = [c for _, c in pos]
    try:
        return box_counting_dimension(scales, counts)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# exact benchmark: digit-frequency deviation sets

@dataclass(frozen=True)
class BeDimension:
    alpha: float
    value: float
    cylinder_estimates: tuple  # ((depth, estimate), ...)
    confirmed: bool


def besicovitch_eggleston_dimension(alpha: float,
                                    depths=(200, 400, 800)) -> BeDimension:
    """Dimension of {binary digit frequency deviates from 1/2 by >= alpha}.

    Closed form: H(1/2 + alpha) / ln 2 with H the natural-log entropy.
    Cross-checked by exact cylinder counts: at depth n the set meets
    sum_{|k/n - 1/2| >= alpha} C(n, k) cylinders, and log2(count)/n
    approaches the dimension from below.  `confirmed` requires the
    estimates to be nondecreasing in depth with the deepest one within
    0.01 of the closed form.
    """
    if not (0.0 < alpha < 0.5):
        raise ValueError("need 0 < alpha < 1/2")
    p = 0.5 + alpha
    q = 0.5 - alpha
    value = -(p * math.log(p) + q * math.log(q)) / LN2

    estimates = []
    for n in depths:
        count = digit_deviation_count(alpha, n)
        estimates.append((int(n), math.log2(count) / n if count else 0.0))
    vals = [v for _, v in estimates]
    monotone = all(b >= a2 for a2, b in zip(vals[:-1], vals[1:]))
    confirmed = monotone and abs(vals[-1] - value) <= 0.01
    return BeDimension(float(alpha), value, tuple(estimates), confirmed)
