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
stencil point misses it).  In 1-d, levels are pruned hierarchically: level
n+1 is only examined underneath cells that pass a *relaxed* threshold at
level n, chosen (one-step telescope of averages plus the Lipschitz bound of
the n-step average over a cell) so that no cell detectable at the report
threshold is ever lost.  Pruning is what keeps deep ladders inside the
cell-evaluation budget.  In 2-d every level is swept densely, in row bands.

Every cell and candidate test is a comparison of a stencil point's
deviation with a threshold (alpha and tau_n in 1-d, alpha in 2-d and in
the ball lemma's candidate screen), and cellmax >= t holds iff some
stencil point reaches t.  So a cheaper deviation within a proven band of
the float64 walk's decides every point outside [t - band, t + band) for
every threshold t, and only the points observables.undecided marks are
walked in float64:

* covers and lemma candidates walk float64 orbits with the screen of
  observables.screen: for cos1 the observable runs on float32 points;
  for the others it is the float64 walk itself, band 0;
* 2-d covers of a linear torus map with a character observable (cos1 on
  the cat map): the Birkhoff sums of a row band have the closed form of one
  small matrix product (_cover_level_2d), within closed_form_band.

Cards, relaxed sets and lemma reports are those of the float64 walk; the
lemma's ball points, whose deviations are reported, are evaluated in
float64 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deviation import LN2, digit_deviation_count, write_csv
from .errors import GridBudgetError, RateNotEstablishedError
from .observables import _TWO_PI, Observable, screen, undecided
from .rng import STREAM_LEMMA_BALLS, STREAM_LEMMA_POINTS, raw_blocks, uniform01
from .systems import (System, _FloatOrbits, birkhoff_sums, check_float64_horizon,
                      domain_points, into_domain, map_chunks)

_POINT_CHUNK = 1 << 16
_BAND_POINTS = 1 << 22  # points per row band of a walked 2-d level


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


def _dev_points(sys, obs, phibar, pts, n, thresholds=(), threads=1):
    """Deviation of an (N, d) float64 batch at horizon n (no domain check).

    With no thresholds these are the float64 values.  With thresholds the
    walk runs on the screen of observables.screen and the rows it leaves
    undecided are recomputed in float64: each returned value compares with
    each threshold (>=) as its float64 value does.  A batch larger than
    _POINT_CHUNK is walked in equal chunks of at most _POINT_CHUNK points,
    which bound the working set, on `threads` threads; values are
    elementwise, so neither the chunking nor the thread count changes any
    value or comparison.
    """
    total = pts.shape[0]
    if total > _POINT_CHUNK:
        out = np.empty(total)

        def fill(i, j):
            out[i:j] = _dev_points(sys, obs, phibar, pts[i:j], n, thresholds)

        chunks = -(-total // _POINT_CHUNK)
        map_chunks(fill, total, -(-total // chunks), threads)
        return out
    fn, band = screen(sys, obs) if thresholds else (obs.fn, 0.0)
    dev = np.abs(next(birkhoff_sums(_FloatOrbits(sys, pts), fn, [n])) / n - phibar)
    rows = np.flatnonzero(undecided(dev, band, thresholds))
    if rows.size:
        dev[rows] = _dev_points(sys, obs, phibar, pts[rows], n)
    return dev


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
    if n < 1:
        raise ValueError("need horizon n >= 1")
    if pair_count < 1:
        raise ValueError("need pair_count >= 1")
    if delta <= 0.0:
        raise ValueError("need delta > 0")
    check_float64_horizon(sys, n)
    radius = delta * sys.L ** (-n)
    if alpha > 2.0 * obs.sup_abs:
        # deviations cannot reach alpha: nothing to sample
        return BallLemmaReport(alpha, n, delta, radius, pair_count, 0, 0, 0,
                               math.inf, True)

    max_draws = candidate_factor * pair_count
    batch = 8192
    drawn = 0
    accepted = []
    while drawn < max_draws and sum(len(a) for a in accepted) < pair_count:
        m = min(batch, max_draws - drawn)
        pts = domain_points(sys, raw_blocks(seed, STREAM_LEMMA_POINTS, drawn, m))
        dev = _dev_points(sys, obs, phibar, pts, n, (alpha,))
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
    dev_y = _dev_points(sys, obs, phibar, into_domain(sys, xs + off), n)
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
    return math.ceil((sys.hi - sys.lo) / s)


def _grid_points(sys, idx, s):
    """(len(idx), 1) points lo + idx * s of a grid of side s, on the domain.

    A float64 idx is overwritten with the points (callers pass one they own).
    """
    pts = idx.astype(np.float64, copy=False)[:, None]
    pts *= s
    pts += sys.lo
    return into_domain(sys, pts)


def _cover_level_1d(sys, obs, phibar, alpha, tau, s, m, n, cand, threads):
    """Detect cells at one 1-d level.  Returns (card, relaxed-detected cells).

    The level's stencil is one grid index array: the corners (cand and
    cand + 1, merged), then the centres.  cand is sorted and unique, so the
    corners are laid out without a sort: cell i's left corner sits at i
    plus the number of gaps in cand before it, and its right corner just
    after.
    """
    left = np.arange(cand.size, dtype=np.int64)
    left[1:] += np.cumsum(np.diff(cand) > 1)
    nc = left[-1] + 2 if cand.size else 0
    idx = np.empty(nc + cand.size)
    idx[left] = cand
    idx[left + 1] = cand + 1
    idx[nc:] = cand
    idx[nc:] += 0.5
    dev = _dev_points(sys, obs, phibar, _grid_points(sys, idx, s), n, (alpha, tau), threads)
    cellmax = np.maximum(np.maximum(dev[left], dev[left + 1]), dev[nc:])
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


def closed_form_band(sys: System, obs: Observable, n: int) -> float:
    """Bound on |closed-form deviation - float64-walk deviation| at horizon n.

    band = 4 * ( (1/n) sum_{j<n} [2 pi rho P_j + 2 pi u w_j + 16 pi u + 20 u]
                 + 5 n u + 7 u ),
    u = 2^-53, w_j = |c_j|_1 (see _character_coefficients), P_j = sum_{m<j} w_m,
    rho = d u |A|_inf (|A|_inf the largest absolute row sum).

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
    2. The closed form.  Per axis i, c_ji x_i is rounded once (u |c_ji|, as
       x_i < 1), the reduction mod 1 is exact for c_ji x_i >= 0 and within
       u of exact otherwise, and 2 pi times it rounds 2 pi and the product
       (4 pi u): a phase error of 2 pi u |c_ji| + 6 pi u, so
       2 pi u w_j + 12 pi u for cos(a + b).  Its four cos/sin entries are
       within 4 u each, so each of its two products is within 8 u:
       2 pi u w_j + 12 pi u + 16 u.
    3. Sums and the average.  The closed form's 2n-term dot product, in any
       order a BLAS picks and with or without fused multiply-adds, is within
       gamma_2n ~ 2 n u times the sum of the magnitudes of its terms, which
       with the 1/n folded into the column factors is at most 2: 4 n u, and
       2 u for rounding the factors by 1/n.  The walk's running sum of n
       terms of size <= 1 is within n^2 u, n u once divided by n, and the
       division adds u.  Subtracting phibar adds u dev to each side, at most
       2 u near a threshold alpha <= 2 sup|phi| = 2; far from it a relative
       error cannot move a deviation across alpha.  Together 5 n u + 7 u.

    Adding 1 and 2 averaged over j, and 3, gives the bracket.  It is taken
    four times: the factor covers the dropped second-order terms, the
    relative u of forming alpha - band and alpha + band in float64, and a
    libm or BLAS a few ulps looser than assumed here.  The band depends on
    the system, the character and n only.  Measured on 90,000 points of the
    level-5 grid of configs/cat.ini (alpha 0.4), three samples, the largest
    gap is 1.0-1.3e-14 at n = 5, 3.6-3.9e-12 at n = 12 and 4.7-5.0e-9 at
    n = 20: 1/20 to 1/26 of the band.
    """
    c = _character_coefficients(sys, obs, n)
    w = np.abs(c).sum(axis=1).astype(np.float64)
    p = np.cumsum(w) - w
    rho = sys.d * _U * max(sum(abs(a) for a in row) for row in sys.matrix)
    per_term = _TWO_PI * rho * p + _TWO_PI * _U * w + 16.0 * math.pi * _U + 20.0 * _U
    return 4.0 * (float(np.sum(per_term)) / n + 5.0 * n * _U + 7.0 * _U)


# OpenBLAS runs a product of up to 2^18 multiply-adds on the calling thread
# and spreads larger ones over threads of its own; with another process
# keeping one of two cores busy those made a level's products 2.3x slower.
_BLAS_MACS = 1 << 17


def _product(a, b):
    """a @ b in column blocks of at most _BLAS_MACS multiply-adds each."""
    out = np.empty((a.shape[0], b.shape[1]))
    step = max(1, _BLAS_MACS // a.size)
    for j in range(0, b.shape[1], step):
        np.matmul(a, b[:, j:j + step], out=out[:, j:j + step])
    return out


def _character_table(x, coef):
    """[cos t | sin t] with t = 2 pi (x coef_j mod 1): a (len(x), 2 len(coef)) array."""
    t = np.multiply.outer(x, coef.astype(np.float64))
    t -= np.floor(t)
    t *= _TWO_PI
    return np.concatenate([np.cos(t), np.sin(t)], axis=1)


def _character_factors(coef, rows, cols):
    """(R, C) with (R @ C)[i, j] = (1/n) sum_j cos(2 pi (c_j0 rows[i] + c_j1 cols[j])).

    cos(a + b) = cos a cos b - sin a sin b, so R holds [cos a | sin a] per
    row and C holds [cos b ; -sin b] / n per column (2n x len(cols)).
    """
    n = coef.shape[0]
    col = np.ascontiguousarray(_character_table(cols, coef[:, 1]).T) / n
    col[n:] *= -1.0
    return _character_table(rows, coef[:, 0]), col


def _cover_level_2d(sys, obs, phibar, alpha, s, m, n, threads):
    """One 2-d level, swept densely in row bands; returns the cell count.

    A cell is counted when one of its stencil points (four corners, centre)
    has deviation >= alpha, so each band marks the hits of its corner and
    centre points and ORs them per cell; a band recomputes the corner row it
    shares with the next.  Hits are elementwise, so neither bands nor
    threads change them.

    A linear torus map with a character observable (sys.matrix and
    obs.character) has the closed form S_n(row, col) = sum_j cos(a_j + b_j),
    a_j = 2 pi c_j0 row, b_j = 2 pi c_j1 col (see _character_coefficients):
    a chunk's sums are one (rows x 2n) @ (2n x cols) product of cos/sin
    tables built once per level, O(m n) cosines for the level instead of
    O(m^2 n).  The points observables.undecided marks at closed_form_band
    are recomputed by the float64 walk, so every hit is that of the float64
    walk.  The closed form runs on the calling thread, one _POINT_CHUNK of
    points a band: OpenBLAS products issued from two threads at once ran
    6-17x slower than from one, and a level of cat.ini took 0.39-0.47 s on
    two threads against 0.28-0.35 s on one.
    Other pairs walk every point under the screen of observables.screen,
    in _BAND_POINTS bands whose chunks run on the thread pool.
    """
    corners = _grid_points(sys, np.arange(m + 1, dtype=np.float64), s).ravel()
    centres = _grid_points(sys, np.arange(m) + 0.5, s).ravel()

    if sys.matrix is None or obs.character is None:
        band_points = _BAND_POINTS

        def hits(axis, r0, r1):
            pts = _grid_2d(axis[r0:r1], axis)
            dev = _dev_points(sys, obs, phibar, pts, n, (alpha,), threads)
            return (dev >= alpha).reshape(r1 - r0, axis.size)
    else:
        band_points = _POINT_CHUNK
        coef = _character_coefficients(sys, obs, n)
        band = closed_form_band(sys, obs, n)
        factors = [_character_factors(coef, axis, axis) for axis in (corners, centres)]

        def hits(axis, r0, r1):
            row_f, col_f = factors[axis is centres]
            dev = _product(row_f[r0:r1], col_f)
            dev -= phibar
            np.abs(dev, out=dev)
            hit = dev >= alpha
            near = np.flatnonzero(undecided(dev, band, (alpha,)))
            if near.size:
                i, j = np.divmod(near, axis.size)
                pts = np.stack([axis[r0 + i], axis[j]], axis=1)
                hit.flat[near] = _dev_points(sys, obs, phibar, pts, n) >= alpha
            return hit

    card = 0
    rows_per_band = max(1, band_points // (m + 1))
    for r0 in range(0, m, rows_per_band):
        r1 = min(r0 + rows_per_band, m)
        corner = hits(corners, r0, r1 + 1)
        edge = corner[:-1] | corner[1:]
        cell = edge[:, :-1] | edge[:, 1:]
        cell |= hits(centres, r0, r1)
        card += int(np.count_nonzero(cell))
    return card


def build_cover_ladder(sys: System, obs: Observable, phibar: float, alpha: float,
                       delta: float, n_lo: int, n_hi: int,
                       budget: int = 10**8, dprimes=(), threads: int = 1) -> CoverLadder:
    """Count grid cells meeting the deviation set at scales r_n = delta * L^-n.

    Cells have side r_n / 2; a cell is counted when the deviation at one of
    its stencil points (corners + center) reaches alpha.  Levels run from
    n_lo to n_hi; in 1-d, levels after the first examine only children of
    cells passing the relaxed thresholds (see _prune_thresholds), in 2-d
    every level is swept densely, in closed form where the system declares
    a matrix and the observable a character (see _cover_level_2d), else by
    the float64 walk.  Either way cards are those of the float64 walk, at
    any thread count.  The budget caps the total number of
    cells examined; a level that would exceed it raises GridBudgetError
    before any of its cells are evaluated.  A level past the float64 orbit
    budget (systems.check_float64_horizon) raises ValueError, whatever alpha.

    alpha <= 0 short-circuits analytically: every cell meets the set, cards
    are full grid sizes, and nothing is evaluated or charged against the
    budget.  alpha > 2 sup|phi| likewise yields empty levels for free.
    """
    if n_hi < n_lo:
        raise ValueError("need n_hi >= n_lo")
    check_float64_horizon(sys, n_hi)
    L = sys.L
    dprimes = tuple(float(dp) for dp in dprimes)

    def entry(n, card):
        r = delta * L ** (-n)
        return CoverEntry(n, r, card, tuple((dp, card * r**dp) for dp in dprimes))

    if alpha <= 0.0 or alpha > 2.0 * obs.sup_abs:
        full = alpha <= 0.0
        entries = [entry(n, _grid_cells(sys, delta * L ** (-n) / 2.0) ** sys.d if full else 0)
                   for n in range(n_lo, n_hi + 1)]
        return CoverLadder(sys.sid, obs.oid, phibar, alpha, delta, L, dprimes,
                           tuple(entries), 0)

    if obs.lip is None:
        raise ValueError(f"observable {obs.oid!r} has no Lipschitz bound; covers need one")
    if n_lo < 1:
        raise ValueError("cover levels need n >= 1 when alpha > 0")
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
        if sys.d == 1 and cand is None:
            cand = np.arange(m, dtype=np.int64)
        cells = m * m if sys.d == 2 else len(cand)
        if examined + cells > budget:
            raise GridBudgetError(
                f"level n={n} needs {cells} cells; {budget - examined} left of budget {budget}")
        examined += cells
        if sys.d == 2:
            entries.append(entry(n, _cover_level_2d(sys, obs, phibar, alpha, s, m, n, threads)))
            continue
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
