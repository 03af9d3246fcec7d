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
                        meet the deviation set, counted per level; their
                        log-cardinality growth and d'-volume sums give an
                        empirical box dimension to compare against d0

The exact benchmark, the Besicovitch-Eggleston dimension of binary
digit-frequency deviation sets, lives in ergolab.oracle.

Cover sweeps detect a cell when the deviation at any stencil point (the
cell's corners and center) reaches the threshold; this is an empirical,
slightly conservative cardinality (a cell can meet the set while every
stencil point misses it).  In 1-d, levels are pruned hierarchically: level
n+1 is only examined underneath cells that pass a *relaxed* threshold at
level n, chosen (one-step telescope of averages plus the Lipschitz bound of
the n-step average over a cell) so that no cell detectable at the report
threshold is ever lost.  Pruning is what keeps deep ladders inside the
cell-evaluation budget.  A 1-d level's candidates and relaxed cells are runs
[lo, hi) of cells.  In 2-d every level is swept densely, in row bands.
Every level, 1-d or 2-d, walked or in closed form, is cut into bands of at
most _POINT_CHUNK stencil points, the starts of one systems.chunk_map
call, and holds one band a thread at a time: a 1-d level keeps per-block
arrays and runs besides, nothing sized by its cells.

Every cell and candidate test is a threshold test, deviation >= t (alpha
and tau_n in 1-d, alpha in 2-d and in the ball lemma's candidate screen),
and a cell's stencil meets t where one of its points does.  Each test is
screened by the one rule of observables (`screen`, `undecided`): _hits
hands back, for each threshold, the mask of the float64 walk's
deviation >= t, decided by a cheaper deviation within a proven band and,
in the band, by observables.deviation.  The cheaper deviation is the
closed form of a linear torus map with a character observable (cos1 on
doubling and on the cat map, within closed_form_band), or else the walk
of observables.screen.  Cards, relaxed sets and lemma reports are those
of the float64 walk; the lemma's ball points, whose deviations are
reported, are evaluated in float64 only.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .deviation import least_squares_line, write_csv
from .errors import GridBudgetError, RateNotEstablishedError, check_integer, check_real
from .observables import (_TWO_PI, Observable, deviation, deviations, max_deviation, screen,
                          undecided)
from .rng import STREAM_LEMMA_BALLS, STREAM_LEMMA_POINTS, raw_blocks, uniform01
from .systems import (_POINT_CHUNK, System, _FloatOrbits, _kept_array, _new_array,
                      check_float64_horizon, chunk_map, domain_points, into_domain)


def dimension_upper_bound(d: int, L: float, h: float) -> float:
    """d - h / ln L: the dimension bound fed by a positive decay rate.

    A non-positive rate means exponential decay was never established and
    no bound follows (RateNotEstablishedError).
    """
    check_integer("d", d, 1)
    check_real("L", L, 1.0, ends="(]")
    if not h > 0.0:
        raise RateNotEstablishedError(f"decay rate h={h} is not positive")
    return d - h / math.log(L)


VERDICT_HOLDS = "bound-holds"
VERDICT_VIOLATED = "bound-violated"
VERDICT_INCONCLUSIVE = "inconclusive"


class RateBound(NamedTuple):
    """The bound d0 = d - h(alpha/2) / ln L at a threshold alpha, or why there is none."""

    alpha: float
    h_half: float | None     # the fitted rates at alpha/2 and at alpha; None where no fit
    h_alpha: float | None
    d0: float | None
    reason: str | None       # why d0 is None


def rate_bound(sys: System, fits: dict, alpha: float) -> RateBound:
    """d0 from the rate fit at alpha/2 in fits (threshold -> RateFunctionFit,
    or None where the fit failed; a threshold missing from fits has no fit)."""
    check_real("alpha", alpha)
    half, full = fits.get(alpha / 2.0), fits.get(alpha)
    d0 = reason = None
    if half is None:
        reason = "no usable rate fit at alpha/2"
    else:
        try:
            d0 = dimension_upper_bound(sys.d, sys.L, half.h)
        except RateNotEstablishedError as e:
            reason = str(e)
    return RateBound(alpha, half.h if half else None, full.h if full else None, d0, reason)


def bound_verdict(obs: Observable, phibar: float, bound: RateBound,
                  box: BoxDimension | None, slack: float):
    """(verdict, reason) of a rate bound against a cover's box dimension.

    The bound holds when the box band's upper end is at most d0 + slack and
    is violated when its lower end is past it.  The verdict is inconclusive,
    with its reason, when the band straddles d0 + slack, the deviation set
    is empty (alpha past observables.max_deviation), there is no d0, or
    there is no box dimension (None); reason is None otherwise.  phibar
    must be finite and slack in [0, inf) (ValueError naming them).
    """
    check_real("phibar", phibar, ends="()")
    check_real("slack", slack, 0.0, ends="[)")
    if bound.alpha > max_deviation(obs, phibar):
        return VERDICT_INCONCLUSIVE, "deviation set is empty at this threshold"
    if bound.d0 is None:
        return VERDICT_INCONCLUSIVE, bound.reason
    if box is None:
        return VERDICT_INCONCLUSIVE, "cover ladder cannot support a box-dimension fit"
    if box.upper <= bound.d0 + slack:
        return VERDICT_HOLDS, None
    if box.lower > bound.d0 + slack:
        return VERDICT_VIOLATED, None
    return VERDICT_INCONCLUSIVE, "box-dimension band straddles the bound"


# ---------------------------------------------------------------------------
# ball lemma

# Candidates per ball-lemma batch.  candidates_drawn counts the candidates of
# every batch drawn, up to the draw budget, so this size is part of the
# report bytes (83 batches, 679936 candidates, in the lemma of
# configs/doubling.ini).
_LEMMA_BATCH = 8192


class BallLemmaReport(NamedTuple):
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


def _hits(dev, band, thresholds, exact):
    """For each threshold t, the mask of the float64 deviation >= t.

    dev is within band of the float64 deviation at every entry; the rows
    observables.undecided leaves in t's band are decided by exact(rows),
    the float64 deviations of those flat indices.  A repeated threshold
    shares its mask: callers only read them.
    """
    masks = {}
    for t in thresholds:
        if t not in masks:
            hit, _, rows = undecided(dev, band, t)
            if rows.size:
                hit.flat[rows] = exact(rows) >= t
            masks[t] = hit
    return [masks[t] for t in thresholds]


def _walk_hits(sys, obs, phibar, pts, n, thresholds):
    """_hits of an (N, d) float64 batch at horizon n (no domain check).

    The batch is walked whole on the screen of observables.screen, in the
    orbit buffers the calling thread keeps (systems._kept_array).
    """
    dtype, (band,) = screen(sys, obs, phibar, [n])
    orbits = _FloatOrbits(sys, pts, _kept_array)
    dev = next(deviations(orbits, obs, phibar, dtype, [n], buffer=_kept_array))
    return _hits(dev, band, thresholds, lambda rows: deviation(sys, obs, phibar, pts[rows], n))


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
    A horizon past the float64 orbit budget (systems.check_float64_horizon)
    raises ValueError: past it, doubling orbits have collapsed onto 0.
    """
    check_integer("n", n, 1)
    check_integer("pair_count", pair_count, 1)
    check_integer("candidate_factor", candidate_factor, 1)
    check_real("delta", delta, 0.0, ends="()")
    check_real("alpha", alpha)
    check_real("phibar", phibar, ends="()")
    check_float64_horizon(sys, n)
    radius = delta * sys.L ** (-n)
    if alpha > max_deviation(obs, phibar):
        # deviations cannot reach alpha: nothing to sample
        return BallLemmaReport(alpha, n, delta, radius, pair_count, 0, 0, 0,
                               math.inf, True)

    max_draws = candidate_factor * pair_count
    drawn = 0
    accepted = []
    # max_draws >= 1, so at least one batch is drawn
    while drawn < max_draws and sum(len(a) for a in accepted) < pair_count:
        m = min(_LEMMA_BATCH, max_draws - drawn)
        pts = domain_points(sys, raw_blocks(seed, STREAM_LEMMA_POINTS, drawn, m))
        accepted.append(pts[_walk_hits(sys, obs, phibar, pts, n, (alpha,))[0]])
        drawn += m
    xs = np.concatenate(accepted)[:pair_count]
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
    dev_y = deviation(sys, obs, phibar, into_domain(sys, xs + off), n)
    margins = dev_y - alpha / 2.0
    return BallLemmaReport(alpha, n, delta, radius, pair_count,
                           int(xs.shape[0]), drawn,
                           int(np.count_nonzero(margins < 0.0)),
                           float(np.min(margins)), False)


# ---------------------------------------------------------------------------
# cover ladders

class CoverEntry(NamedTuple):
    n: int
    r_n: float
    card: int
    volumes: tuple  # ((dprime, card * r_n**dprime), ...)


class CoverLadder(NamedTuple):
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
    return math.ceil((sys.hi - sys.lo) / s)


def _grid_points(sys, idx, s):
    """(len(idx), 1) points lo + idx * s of a grid of side s, on the domain.

    A float64 idx is overwritten with the points (callers pass one they own).
    """
    pts = idx.astype(np.float64, copy=False)[:, None]
    pts *= s
    pts += sys.lo
    return into_domain(sys, pts)


def _union_runs(lo, hi):
    """Disjoint, sorted, non-touching runs covering the union of [lo, hi), lo sorted."""
    reach = np.maximum.accumulate(hi)
    first = np.ones(lo.shape, dtype=bool)
    np.greater(lo[1:], reach[:-1], out=first[1:])
    last = np.flatnonzero(np.append(first[1:], lo.size > 0))
    return lo[first], reach[last]


def _children_1d(sys, lo, hi, ratio, m_next):
    """Child runs (lo, hi) one level down, padded a full parent cell each side.

    Parent i has the window [b_i, b_i + width) of child indices,
    b_i = floor((i - 1) ratio), and b_i steps by at most ceil(ratio) < width:
    a sorted parent run [lo, hi) has the window [b_lo, b_{hi - 1} + width),
    the union of theirs.  These are clipped to [0, m_next) (interval) or
    wrapped onto it (torus: a window crossing the end becomes two) and merged.
    """
    width = int(math.ceil(3.0 * ratio)) + 2
    lo, hi = (np.floor((ends.astype(np.float64) - back) * ratio).astype(np.int64)
              for ends, back in ((lo, 1.0), (hi, 2.0)))
    hi += width
    if sys.domain == "torus":
        size = np.minimum(hi - lo, m_next)    # a window the size of the circle covers it
        lo %= m_next
        hi = lo + size
        over = hi > m_next
        lo = np.concatenate([lo, np.zeros(np.count_nonzero(over), dtype=np.int64)])
        hi = np.concatenate([np.minimum(hi, m_next), hi[over] - m_next])
        order = np.argsort(lo, kind="stable")   # nearly sorted: the wrap moves a few
        lo, hi = lo[order], hi[order]
    else:
        lo, hi = np.clip(lo, 0, m_next - 1), np.clip(hi, 1, m_next)
    return _union_runs(lo, hi)


def _grid_2d(rows, cols, buffer=_new_array):
    """The (len(rows) * len(cols), 2) points (row, col), row-major, in
    buffer("grid", ...) (see systems._FloatOrbits)."""
    pts = buffer("grid", (rows.size, cols.size, 2))
    pts[:, :, 0] = rows[:, None]
    pts[:, :, 1] = cols[None, :]
    return pts.reshape(-1, 2)


_U = 2.0**-53  # unit roundoff of float64


def _character_coefficients(sys, obs, n):
    """c_j = (A^T)^j k for j < n, an (n, d) int64 array.

    For a linear torus map (sys.matrix = A) and a character observable
    (obs.character = k), <k, A^j x> = <c_j, x>, so the j-th orbit term is
    cos(2 pi <c_j, x>) exactly, whatever integers the wraps mod 1 removed.
    Covers stop at n log2 L <= systems.FLOAT64_BITS, so |c_j| < 2^47 stays exact
    in int64 and in float64.
    """
    a_t = np.array(sys.matrix, dtype=np.int64).T
    c = np.empty((n, sys.d), dtype=np.int64)
    c[0] = obs.character
    for j in range(1, n):
        c[j] = a_t @ c[j - 1]
    return c


def closed_form_band(sys: System, coef) -> float:
    """Bound on |closed-form deviation - float64-walk deviation| at horizon n = len(coef).

    band = 4 * ( (1/n) sum_{j<n} [2 pi rho P_j + 2 pi (1 + sigma) u w_j + 16 pi u + 20 u]
                 + 5 n u + 7 u ),
    u = 2^-53, w_j = |c_j|_1 (coef: see _character_coefficients), P_j = sum_{m<j} w_m,
    rho = d u |A|_inf (|A|_inf the largest absolute row sum), sigma = 4 in
    1-d and 0 in 2-d.

    Both deviations are of the same float64 grid point x; each is compared
    with the exact |(1/n) sum_j cos(2 pi <c_j, x>) - phibar|.  Per term j:

    1. The float walk.  A step is wrap_unit(A x) (the catalog test checks
       it bit for bit): each coordinate of A x is a sum of d products of
       size at most |A|_inf, rounded once or more, so it is off by at most
       rho; the wrap subtracts an integer exactly.  An error r at step i
       reaches the phase <k, x_j> as <c_{j-1-i}, r>, at most w_{j-1-i} rho,
       so the walk's phase at step j is off by at most rho P_j, and its
       term by 2 pi rho P_j.  P_j grows like L^j: this is the rounding that
       ends float orbits after about 53 / log2 L steps.  Evaluating cos1 at
       the walked point rounds 2 pi and 2 pi x1 (2 pi u each, the phase
       below 1) and the cosine (at most 4 ulp, 4 u on values below 1):
       2 pi rho P_j + 4 pi u + 4 u.
    2. The closed form.  Its term is cos(a + b) of a row phase a and a
       column phase b, each 2 pi (c y mod 1) for an integer c and a float
       y.  The product c y is rounded once, the reduction mod 1 is exact for
       c y >= 0 and within u of exact otherwise, and 2 pi times it rounds
       2 pi and the product: a phase error of 2 pi u |c y| + 6 pi u.
       In 2-d, y is a coordinate x_i < 1 and c = c_ji, so the two phases
       are off by 2 pi u w_j + 12 pi u.  In 1-d, grid index i (a corner, or
       a centre i + 1/2) of a block starting at cell p is split as
       x_p + x_q, x_p = fl(p s) and x_q = fl((i - p) s), both with c = c_j0.
       Both parts and the walk's fl(i s) are within u i s of i s, and
       i s < 1 + s <= 3/2 on cells of side s <= 1/2, so the split moves the
       phase by at most 3 u |c_j0| and the two products round by at most
       (3/2) u |c_j0|: under 2 pi (1 + sigma) u w_j + 12 pi u with
       sigma = 4.  (The walk wraps a corner past 1 to x - 1 exactly, which
       moves no phase of an integer c_j.)  The four cos/sin entries are
       within 4 u each, so each of the two products is within 8 u:
       2 pi (1 + sigma) u w_j + 12 pi u + 16 u.
    3. Sums and the average.  The closed form's 2n-term dot product, in any
       order a BLAS picks and with or without fused multiply-adds, is within
       gamma_2n ~ 2 n u times the sum of the magnitudes of its terms, which
       with the 1/n folded into the column factors is at most 2: 4 n u, and
       2 u for rounding the factors by 1/n.  The walk's running sum of n
       terms of size <= 1 is within n^2 u, n u once divided by n, and the
       division adds u.  Subtracting phibar adds u dev to each side, at most
       2 u near a threshold alpha <= 2 (a space average has |phibar| <= 1);
       far from it a relative error cannot move a deviation across alpha.
       Together 5 n u + 7 u.

    Adding 1 and 2 averaged over j, and 3, gives the bracket.  It is taken
    four times: the factor covers the dropped second-order terms, the
    relative u of forming alpha - band and alpha + band in float64, and a
    libm or BLAS a few ulps looser than assumed here.  The band depends on
    the system, the character and n only.  Measured on 90,000 points of the
    level-5 grid of configs/cat.ini (alpha 0.4), three samples, the largest
    gap is 1.0-1.3e-14 at n = 5, 3.6-3.9e-12 at n = 12 and 4.7-5.0e-9 at
    n = 20: 1/20 to 1/26 of the band.  On the split blocks of about 24,000
    cells of doubling.ini's levels (alpha 0.6), the first and last 2,000
    and random ones, three samples, it is 5.5-6.4e-14 at n = 10, 5.3e-12
    at n = 17 and 3.7e-10 at n = 24: 1/28 to 1/37 of the band.
    """
    n = len(coef)
    w = np.abs(coef).sum(axis=1).astype(np.float64)
    p = np.cumsum(w) - w
    rho = sys.d * _U * max(sum(abs(a) for a in row) for row in sys.matrix)
    sigma = 4.0 if sys.d == 1 else 0.0
    per_term = (_TWO_PI * rho * p + _TWO_PI * (1.0 + sigma) * _U * w
                + 16.0 * math.pi * _U + 20.0 * _U)
    return 4.0 * (float(np.sum(per_term)) / n + 5.0 * n * _U + 7.0 * _U)


# OpenBLAS runs a product of up to 2^18 multiply-adds on the calling thread
# and spreads larger ones over threads of its own; with another process
# keeping one of two cores busy those made a level's products 2.3x slower.
_BLAS_MACS = 1 << 17


def _product(a, b):
    """a @ b in blocks of at most _BLAS_MACS multiply-adds each, cut across
    the longer side: bands of a's rows where a is the taller, else column
    blocks of b (never below one row or column).  A band of cat.ini's
    level 5, (8 x 10) @ (10 x 7730), took 2.8x as long in single rows as in
    column blocks, and a band of doubling.ini's level 17, (508 x 34) @
    (34 x 129), 1.5x as long in column blocks as in bands of rows."""
    out = np.empty((a.shape[0], b.shape[1]))
    if a.shape[0] > b.shape[1]:
        step = max(1, _BLAS_MACS // b.size)
        for i in range(0, a.shape[0], step):
            np.matmul(a[i:i + step], b, out=out[i:i + step])
    else:
        step = max(1, _BLAS_MACS // a.size)
        for j in range(0, b.shape[1], step):
            np.matmul(a, b[:, j:j + step], out=out[:, j:j + step])
    return out


def _row_factor(obs, y, coef):
    """[cos t | sin t] with t = 2 pi (y c_j mod 1): a (len(y), 2 len(coef)) array.

    The cosines are obs.fn at the points (y c_j mod 1) e_1: cos t for a
    character with k_1 = 1 (see _closed_form), by the multiply by 2 pi the
    sines take, so the tables' evaluations count as the observable's.
    """
    t = np.multiply.outer(y, coef.astype(np.float64))
    t -= np.floor(t)
    pts = np.zeros((t.size, len(obs.character)))
    pts[:, 0] = t.ravel()
    table = np.empty((y.size, 2 * coef.size))
    table[:, :coef.size] = obs.fn(pts).reshape(t.shape)
    t *= _TWO_PI
    np.sin(t, out=table[:, coef.size:])
    return table


def _col_factor(obs, y, coef):
    """[cos t ; -sin t] / n, t as in _row_factor: a (2n, len(y)) array, so that
    (_row_factor(obs, ya, ca) @ _col_factor(obs, yb, cb))[i, k] =
    (1/n) sum_j cos(2 pi (ca_j ya[i] + cb_j yb[k]))."""
    n = coef.size
    col = np.ascontiguousarray(_row_factor(obs, y, coef).T) / n
    col[n:] *= -1.0
    return col


def _closed_form_hits(sys, obs, phibar, n, band, thresholds, row_f, col_f, points):
    """_hits of |row_f @ col_f - phibar| at closed_form_band: points(flat)
    are the float64 grid points of flat indices of the product."""
    dev = _product(row_f, col_f)
    dev -= phibar
    np.abs(dev, out=dev)
    return _hits(dev, band, thresholds, lambda rows: deviation(sys, obs, phibar, points(rows), n))


def _closed_form(sys, obs):
    """Whether covers take Birkhoff sums in closed form: a linear torus map
    (sys.matrix) with a character observable (obs.character) whose k_1 is 1,
    so that its fn gives the cosines of the tables (see _row_factor)."""
    return sys.matrix is not None and obs.character is not None and obs.character[0] == 1


# Cells per block of a 1-d level.  Medians of 45 covers of
# perfbench's doubling-report (3 alternating rounds, 2 vCPU Xeon): 16.2,
# 13.0, 11.7, 12.3 and 15.2 ms at 16, 32, 64, 128 and 256 cells; of 6 of
# shipped doubling.ini: 0.33, 0.24, 0.21, 0.21 and 0.28 s.  Short blocks
# pay more row tables per cell, long ones more unused columns on short
# runs; 64 ties 128.
_BLOCK = 64


def _cover_level_1d(sys, obs, phibar, alpha, tau, s, n, lo, hi, coef, threads):
    """Detect the cells of the sorted, disjoint, non-touching runs [lo, hi)
    at one 1-d level.  Returns (card, the runs (lo, hi) of relaxed-detected
    cells), sorted, disjoint and non-touching.

    A cell's stencil is its two corners and its centre; it hits alpha (tau)
    where one of them does.  Each run is cut into blocks of _BLOCK cells
    from lo on; a block starting at cell p has the stencil points p + q,
    q = 0.._BLOCK (corners), then p + q + 1/2 (centres), and one band loop
    ORs their hit masks per cell, as _cover_level_2d does.  A band holds
    the _POINT_CHUNK // (2 _BLOCK + 1) blocks whose stencil points fill at
    most _POINT_CHUNK, and the bands are the starts of systems.chunk_map,
    on the calling thread in closed form (see _cover_level_2d) and on
    `threads` threads walked.  Given coef, the ladder's (n_hi, 1) character
    coefficients (see _closed_form), a band's masks come from
    _closed_form_hits: its blocks' rows have the phases of fl(p s) and
    share the columns of fl(q s) and fl((q + 1/2) s) (closed_form_band
    bounds the split).  Otherwise _walk_hits walks the band's points inside
    their runs, picked from its blocks' stencil indices, which the band
    writes into an array its thread keeps (systems._kept_array).  Each band
    returns its card and its relaxed runs, read from the edges of its
    blocks' relaxed slots; the level sums the cards and joins, in band
    order, a run that goes on across a block or band edge, so it keeps
    per-block arrays and runs, nothing sized by its cells.
    """
    offsets = np.concatenate([np.arange(_BLOCK + 1.0), np.arange(_BLOCK) + 0.5])
    blocks = -(-(hi - lo) // _BLOCK)   # blocks per run
    p = np.repeat(lo - _BLOCK * (np.cumsum(blocks) - blocks), blocks)
    p += _BLOCK * np.arange(p.size)   # the first cell of each block
    size = np.minimum(np.repeat(hi, blocks) - p, _BLOCK)   # its cells
    per_band = max(1, _POINT_CHUNK // offsets.size)
    if coef is None:
        def hits(k0, k1):
            inside = offsets <= size[k0:k1, None]   # the stencil points of the blocks' cells
            idx = np.add(p[k0:k1, None], offsets, out=_kept_array("stencil", inside.shape))
            out = np.zeros((2, k1 - k0, offsets.size), dtype=bool)
            out[0][inside], out[1][inside] = _walk_hits(
                sys, obs, phibar, _grid_points(sys, idx[inside], s), n, (alpha, tau))
            return out
    else:
        band = closed_form_band(sys, coef[:n])
        coef = coef[:n, 0]
        col_f = _col_factor(obs, offsets * s, coef)
        rows = _grid_points(sys, p.astype(np.float64), s).ravel()

        def hits(k0, k1):
            def points(near):
                k, c = np.divmod(near, offsets.size)
                return _grid_points(sys, p[k0 + k] + offsets[c], s)

            return _closed_form_hits(sys, obs, phibar, n, band, (alpha, tau),
                                     _row_factor(obs, rows[k0:k1], coef), col_f, points)

    def card_and_edges(k0):
        # the band's card and its relaxed runs, starts and ends interleaved
        k1 = min(k0 + per_band, p.size)
        valid = np.arange(_BLOCK) < size[k0:k1, None]
        relaxed = np.zeros((k1 - k0, _BLOCK + 2), dtype=bool)   # False either side
        hit_alpha, relaxed[:, 1:-1] = (   # a left or right corner or the centre, in the run
            (hit[:, :_BLOCK] | hit[:, 1:_BLOCK + 1] | hit[:, _BLOCK + 1:]) & valid
            for hit in hits(k0, k1))
        k, q = np.divmod(np.flatnonzero(relaxed[:, 1:] != relaxed[:, :-1]), _BLOCK + 1)
        return int(np.count_nonzero(hit_alpha)), p[k0 + k] + q

    bands = chunk_map(card_and_edges, range(0, p.size, per_band), threads if coef is None else 1)
    edges = np.concatenate([np.empty(0, dtype=np.int64)] + [e for _, e in bands])
    return sum(c for c, _ in bands), _union_runs(edges[::2], edges[1::2])


def _cover_level_2d(sys, obs, phibar, alpha, s, m, n, coef, threads):
    """One 2-d level, swept densely in row bands; returns the cell count.

    A cell is counted when one of its stencil points (four corners, centre)
    has deviation >= alpha, so each band marks the hits of its corner and
    centre points and ORs them per cell; a band recomputes the corner row it
    shares with the next.  A band of P points has max(1, P // (m + 1) - 1)
    rows of cells, so its corner rows fit in P points whenever two rows do.
    Hits are elementwise, so neither bands nor threads change them.

    Given coef, the ladder's (n_hi, 2) character coefficients (see
    _closed_form), S_n(row, col) = sum_j cos(a_j + b_j), a_j = 2 pi c_j0 row,
    b_j = 2 pi c_j1 col, j < n (see _character_coefficients): a band's hits
    are those of _closed_form_hits from cos/sin tables built once per
    level, O(m n) cosines for the level instead of O(m^2 n).  Other pairs
    walk every point under the screen of observables.screen (_walk_hits).

    Bands hold P = _POINT_CHUNK points and are the starts of
    systems.chunk_map: walked bands on `threads` threads, closed-form ones
    on the calling thread, since OpenBLAS products issued from two threads
    at once ran 6-17x slower than from one, and a level of cat.ini took
    0.39-0.47 s on two threads against 0.28-0.35 s on one.
    """
    corners = _grid_points(sys, np.arange(m + 1, dtype=np.float64), s).ravel()
    centres = _grid_points(sys, np.arange(m) + 0.5, s).ravel()

    if coef is None:
        def hits(axis, r0, r1):
            pts = _grid_2d(axis[r0:r1], axis, _kept_array)
            return _walk_hits(sys, obs, phibar, pts, n, (alpha,))[0].reshape(r1 - r0, axis.size)
    else:
        coef = coef[:n]
        band = closed_form_band(sys, coef)
        factors = [(_row_factor(obs, axis, coef[:, 0]), _col_factor(obs, axis, coef[:, 1]))
                   for axis in (corners, centres)]

        def hits(axis, r0, r1):
            row_f, col_f = factors[axis is centres]

            def points(near):
                i, j = np.divmod(near, axis.size)
                return np.stack([axis[r0 + i], axis[j]], axis=1)

            return _closed_form_hits(sys, obs, phibar, n, band, (alpha,),
                                     row_f[r0:r1], col_f, points)[0]

    def card(r0):
        r1 = min(r0 + rows_per_band, m)
        corner = hits(corners, r0, r1 + 1)
        edge = corner[:-1] | corner[1:]
        cell = edge[:, :-1] | edge[:, 1:]
        cell |= hits(centres, r0, r1)
        return int(np.count_nonzero(cell))

    rows_per_band = max(1, _POINT_CHUNK // (m + 1) - 1)
    return sum(chunk_map(card, range(0, m, rows_per_band), threads if coef is None else 1))


def build_cover_ladder(sys: System, obs: Observable, phibar: float, alpha: float,
                       delta: float, n_lo: int, n_hi: int,
                       budget: int = 10**8, dprimes=(), threads: int = 1) -> CoverLadder:
    """Count grid cells meeting the deviation set at scales r_n = delta * L^-n.

    Cells have side r_n / 2; a cell is counted when the deviation at one of
    its stencil points (corners + center) reaches alpha.  Levels run from
    n_lo to n_hi.  In 1-d the first level is the run [0, m) of all cells and
    each later one the children of the runs of cells passing the relaxed
    thresholds (see _prune_thresholds, _children_1d); in 2-d every level is
    swept densely.  A linear map (the system declares a matrix) with a
    character observable takes its Birkhoff sums in closed form, other
    pairs by the float64 walk, in bands of at most _POINT_CHUNK stencil
    points (_cover_level_1d, _cover_level_2d).  Either way cards are those
    of the float64 walk, at any thread count: `threads` (an integer >= 1,
    ValueError naming it) runs the bands of walked levels on
    systems.chunk_map, and those of the closed forms on the calling
    thread.  The budget, an integer >= 1, caps the total number
    of cells examined (the runs' lengths in 1-d); a level that would exceed it raises
    GridBudgetError before any of its cells are evaluated.  A level past the
    float64 orbit budget (systems.check_float64_horizon) raises ValueError,
    whatever alpha.

    alpha <= 0 short-circuits analytically: every cell meets the set, cards
    are full grid sizes, and nothing is evaluated or charged against the
    budget.  alpha past observables.max_deviation likewise yields empty
    levels for free.  Either way delta must be finite and > 0.
    """
    check_integer("n_lo", n_lo)
    check_integer("n_hi", n_hi)
    check_integer("threads", threads, 1)
    check_integer("budget", budget, 1)
    if n_hi < n_lo:
        raise ValueError("need n_hi >= n_lo")
    check_real("alpha", alpha)
    check_real("phibar", phibar, ends="()")
    check_real("delta", delta, 0.0, ends="()")
    check_float64_horizon(sys, n_hi)
    L = sys.L
    dprimes = tuple(check_real("dprimes entry", dp) for dp in dprimes)

    def entry(n, card):
        r = delta * L ** (-n)
        return CoverEntry(n, r, card, tuple((dp, card * r**dp) for dp in dprimes))

    W = max_deviation(obs, phibar)
    if alpha <= 0.0 or alpha > W:
        full = alpha <= 0.0
        entries = [entry(n, _grid_cells(sys, delta * L ** (-n) / 2.0) ** sys.d if full else 0)
                   for n in range(n_lo, n_hi + 1)]
        return CoverLadder(sys.sid, obs.oid, phibar, alpha, delta, L, dprimes,
                           tuple(entries), 0)

    if obs.lip is None:
        raise ValueError(f"observable {obs.oid!r} has no Lipschitz bound; covers need one")
    check_integer("n_lo", n_lo, 1)    # walked levels need n >= 1
    if sys.d > 2:
        raise ValueError("covers support d <= 2")

    taus = _prune_thresholds(alpha, n_lo, n_hi, obs.lip, W, L, delta, sys.d)
    coef = _character_coefficients(sys, obs, n_hi) if _closed_form(sys, obs) else None
    examined = 0
    entries = []
    runs = None  # None means: sweep this level densely
    for n in range(n_lo, n_hi + 1):
        s = delta * L ** (-n) / 2.0
        m = _grid_cells(sys, s)
        if sys.d == 1 and runs is None:
            runs = np.array([0]), np.array([m])
        cells = m * m if sys.d == 2 else int(np.sum(runs[1] - runs[0]))
        if examined + cells > budget:
            raise GridBudgetError(
                f"level n={n} needs {cells} cells; {budget - examined} left of budget {budget}")
        examined += cells
        if sys.d == 2:
            entries.append(entry(n, _cover_level_2d(sys, obs, phibar, alpha, s, m, n, coef,
                                                    threads)))
            continue
        card, relaxed = _cover_level_1d(sys, obs, phibar, alpha, taus[n], s, n, *runs,
                                        coef, threads)
        entries.append(entry(n, card))
        if n < n_hi:
            if taus[n] <= 0.0:
                runs = None  # relaxed threshold is vacuous: next level is dense
            else:
                m_next = _grid_cells(sys, delta * L ** (-(n + 1)) / 2.0)
                runs = _children_1d(sys, *relaxed, L, m_next)
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

class VolumeSeries(NamedTuple):
    dprime: float
    partial_sum: float
    converges: bool


def dprime_volume_series(ladder: CoverLadder, dprime: float) -> VolumeSeries:
    """Partial sum of card_n * r_n^d' with a geometric tail estimate.

    The sum runs over every entry of the ladder.  When the last ratio of
    consecutive positive terms is below 1, a geometric tail bound
    (last term * rho / (1 - rho)) is folded into the partial sum.
    `converges` requires the last few (up to 3) ratios to stabilize below
    0.95; with no ratio evidence it is True only for an identically zero
    tail.
    """
    dprime = check_real("dprime", dprime)
    terms = [e.card * e.r_n**dprime for e in ladder.entries]
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


class BoxDimension(NamedTuple):
    value: float
    lower: float
    upper: float


def box_counting_dimension(scales, counts) -> BoxDimension:
    """Slope of log(count) against log(1/scale), with a 2-sigma slope band.

    Needs at least 4 finite scales spanning at least two decades, and
    positive finite counts.  All-equal counts (e.g. a single occupied cell
    at every scale) give dimension 0 exactly.
    """
    s = np.asarray(scales, dtype=np.float64)
    c = np.asarray(counts, dtype=np.float64)
    if s.shape != c.shape or s.ndim != 1 or s.size < 4:
        raise ValueError("scales and counts must be 1-d arrays of one length, at least 4")
    check_real("scales", s, 0.0, ends="()")
    check_real("counts", c, 0.0, ends="()")
    if math.log10(float(np.max(s)) / float(np.min(s))) < 2.0:
        raise ValueError("scales must span at least two decades")
    if np.all(c == c[0]):
        return BoxDimension(0.0, 0.0, 0.0)
    x = np.log(1.0 / s)
    y = np.log(c)
    slope, _, resid = least_squares_line(x, y)
    dof = max(s.shape[0] - 2, 1)
    sxx = float(np.sum((x - x.mean()) ** 2))
    se = math.sqrt(float(np.sum(resid * resid)) / dof / sxx)
    return BoxDimension(float(slope), float(slope - 2.0 * se), float(slope + 2.0 * se))


def try_box_dimension(ladder: CoverLadder) -> BoxDimension | None:
    """Box dimension of a cover ladder, or None when the ladder can't support one."""
    pos = [e for e in ladder.entries if e.card > 0]
    try:
        return box_counting_dimension([e.r_n for e in pos], [e.card for e in pos])
    except ValueError:
        return None
