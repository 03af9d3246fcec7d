"""Deviation-set measures: sampled ladders, exact oracles, and rate fits.

The central object is the measure of the deviation set

    K(alpha, n) = { x : |(1/n) sum_{j<n} phi(f^j x) - phibar| >= alpha }

as a function of the horizon n.  Ladders of these measures are estimated by
Monte Carlo over orbit ensembles, or computed exactly for the digit
observable (binary digit frequencies are Bernoulli(1/2), so the measure is
a binomial tail).  An exponential-decay fit  measure ~ C * exp(-n h)
extracts the empirical rate h, to be compared against the closed-form
Bernoulli rate.

Thresholds are closed (>=).  The exact oracle compares |k/n - 1/2| with
alpha = p/q, the integer ratio of the float argument (its exact binary
value), in integers: |2k - n| q >= 2n p.  That is the same test the float
estimator applies to exact dyadic frequencies, so the two routes agree even
when k/n lands exactly on the threshold.

Monte Carlo counts are exact float64 counts, found cheaply by the one
screen rule of observables (`screen`, `deviations`, `undecided`, where the
rule, the float32 walk of cos1 and its band are described): each
threshold counts the samples the screened deviation decides, and only the
few samples in its band, from every chunk, are redrawn from their own
counter blocks in one draw after the last chunk and recounted on one
float64 walk with the closed threshold.  The counts, and so every report
byte, are those of the float64 walk alone.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import check_integer, check_real
from .observables import (DIGIT, DIGIT_MEAN, DIGIT_SYSTEM, Observable,
                          deviations, screen, undecided)
from .systems import _POINT_CHUNK, System, check_ensemble_horizon, sample_orbit_ensemble

LN2 = math.log(2.0)

METHOD_MC = "monte-carlo"
METHOD_BINOMIAL = "exact-binomial"

_MIN_SAMPLES = 1_000


class LadderEntry(NamedTuple):
    n: int
    measure: float
    std_error: float
    sample_count: int
    method: str


class DeviationLadder(NamedTuple):
    system_id: str
    observable_id: str
    phibar: float
    alpha: float
    entries: tuple


# ---------------------------------------------------------------------------
# Monte-Carlo estimation

def _hit_grid(sys, obs, phibar, alphas, n_values, sample_count, seed):
    """Hit counts for every (alpha, n) cell, one orbit pass per sample.

    Samples are walked on the calling thread in chunks of _POINT_CHUNK,
    which bound the working set.  Each chunk draws its own counter blocks
    and the counts are integer sums, so the chunk size changes no count.

    Each chunk is walked with the screen of observables.screen, whose
    deviation dev, at a horizon with band b, decides every sample outside
    [t - b, t + b) for a threshold t: the cell (t, n) counts the samples
    with dev >= t + b and marks the band's samples (observables.undecided).
    Whether the ensemble's step doubles the phase, so that the screen may
    take every other cos1 term from the one before it, is read from the
    system's representation (sys.ensemble), not from the ensemble drawn,
    which may be wrapped by anything that forwards points() and advance().
    After the last chunk the marked samples, from every chunk, are redrawn
    from their own counter blocks in one draw and walked once in float64,
    down to the deepest horizon any of them is marked at, and each cell
    counts its marked samples on that walk.  A sample's orbit is a pure
    function of its block, so the counts are those of the float64 walk
    alone.  Band 0 (the float64 walk) marks nothing.
    """
    n_values = list(n_values)
    alphas = [float(a) for a in alphas]
    dtype, bands = screen(sys, obs, phibar, n_values)
    doubles = sys.ensemble.doubles_phase
    hits = np.zeros((len(alphas), len(n_values)), dtype=np.int64)
    near = {}    # (i, j) -> indices of the samples in alpha_i's band at n_j, an array a chunk
    drawn = []   # each chunk's samples in some band, sorted

    def screened_chunk(start, stop):
        # the chunk's ensemble and deviations die on return, before the
        # next chunk's draw
        flag = None
        ens = sample_orbit_ensemble(sys, seed, start, stop - start)
        for j, dev in enumerate(deviations(ens, obs, phibar, dtype, n_values, doubles)):
            for i, t in enumerate(alphas):
                _, above, rows = undecided(dev, bands[j], t)
                hits[i, j] += above
                if not rows.size:
                    continue
                near.setdefault((i, j), []).append(start + rows)
                if flag is None:
                    # the union is a mask, not np.unique, which imports numpy.ma on first use
                    flag = np.zeros(stop - start, dtype=bool)
                flag[rows] = True
        if flag is not None:
            drawn.append(start + np.flatnonzero(flag))

    for start in range(0, sample_count, _POINT_CHUNK):
        screened_chunk(start, min(start + _POINT_CHUNK, sample_count))
    if drawn:
        # chunks are disjoint and in order, so the concatenation is sorted
        idx = np.concatenate(drawn)
        deepest = max(j for _, j in near)
        ens = sample_orbit_ensemble(sys, seed, idx, idx.size)
        for j, dev in enumerate(deviations(ens, obs, phibar, np.float64, n_values[:deepest + 1])):
            for i, t in enumerate(alphas):
                if (i, j) in near:
                    rows = np.searchsorted(idx, np.concatenate(near[i, j]))
                    hits[i, j] += np.count_nonzero(dev[rows] >= t)
    return hits


def build_deviation_ladders(sys: System, obs: Observable, phibar: float,
                            alphas, n_values, sample_count: int, seed: int) -> dict:
    """Ladders for several thresholds from one shared orbit pass.

    Horizons must be integers >= 1 and strictly increasing; one past the
    budget of the system's ensemble representation (76 for the 128-bit
    dyadic doubling and tent ensembles, 54 for cat) raises ValueError
    rather than returning a wrong measure.
    """
    check_integer("sample_count", sample_count, _MIN_SAMPLES)
    alphas = [check_real("alphas entry", a) for a in alphas]
    check_real("phibar", phibar, ends="()")
    n_values = list(n_values)
    for n in n_values:
        check_integer("n_values entry", n)
    if any(n < 1 for n in n_values):
        raise ValueError("deviation horizons must be >= 1")
    if any(a >= b for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly increasing")
    check_ensemble_horizon(sys, max(n_values, default=0))
    hits = _hit_grid(sys, obs, phibar, alphas, n_values, sample_count, seed)
    out = {}
    for i, a in enumerate(alphas):
        entries = []
        for j, n in enumerate(n_values):
            p = hits[i, j] / sample_count
            se = math.sqrt(p * (1.0 - p) / sample_count)
            entries.append(LadderEntry(n, float(p), se, sample_count, METHOD_MC))
        out[a] = DeviationLadder(sys.sid, obs.oid, phibar, a, tuple(entries))
    return out


# ---------------------------------------------------------------------------
# exact binomial oracle (digit observable on the doubling map)

def exact_deviation_measure_digit(alpha: float, n: int) -> float:
    """Exact measure of {|digit frequency - 1/2| >= alpha} at horizon n.

    Digit frequencies of the doubling map are Bernoulli(1/2), so the
    measure is digit_deviation_count(alpha, n) / 2^n, an integer quotient
    that Python rounds correctly.  The count compares in integers with the
    exact value of the float alpha, so a class with k/n exactly on the
    boundary is classified the same way the float comparison classifies it.
    """
    check_integer("n", n, 1)
    return digit_deviation_count(alpha, n) / 2**n


def digit_deviation_count(alpha: float, n: int) -> int:
    """Number of length-n binary words whose digit frequency k/n has |k/n - 1/2| >= alpha.

    The sum of C(n, k) over the admissible k.  alpha is the exact binary
    value p/q of the float, p and q = 2^e > 0 its integer ratio, and
    |k/n - 1/2| >= p/q is |2k - n| q >= 2n p after multiplying by 2nq > 0,
    a test in integers.  alpha must be finite (ValueError naming it): an
    infinite one has no integer ratio.
    """
    p, q = check_real("alpha", alpha, ends="()").as_integer_ratio()
    return sum(math.comb(n, k) for k in range(n + 1) if abs(2 * k - n) * q >= 2 * n * p)


def exact_digit_ladder(alpha: float, n_values) -> DeviationLadder:
    """Exact ladder for the digit observable; no sampling, zero error bars.
    Horizons must be strictly increasing integers >= 1 (ValueError naming n_values)."""
    n_values = list(n_values)
    for n in n_values:
        check_integer("n_values entry", n, 1)
    if any(a >= b for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly increasing")
    entries = tuple(
        LadderEntry(int(n), exact_deviation_measure_digit(alpha, n), 0.0, 0, METHOD_BINOMIAL)
        for n in n_values
    )
    return DeviationLadder(DIGIT_SYSTEM, DIGIT.oid, DIGIT_MEAN, float(alpha), entries)


def cramer_bernoulli(alpha: float) -> float:
    """Closed-form large-deviation rate for Bernoulli(1/2) digit frequencies.

    rate(alpha) = ln 2 - H(1/2 + alpha), with H the natural-log entropy.
    Beyond alpha = 1/2 the deviation is impossible and the rate saturates at
    ln 2.
    """
    check_real("alpha", alpha, 0.0)
    if alpha >= 0.5:
        return LN2
    p = 0.5 + alpha
    q = 0.5 - alpha
    return LN2 + p * math.log(p) + (q * math.log(q) if q > 0.0 else 0.0)


# ---------------------------------------------------------------------------
# exponential-decay fits

class RateFunctionFit(NamedTuple):
    C: float
    h: float
    fit_window: tuple
    r_squared: float
    residual_max: float
    dropped_zero_entries: int


def default_fit_window(ladder: DeviationLadder):
    """Deepest usable stretch of the ladder for an exponential fit.

    A sampled entry is usable when its measure exceeds 10*eps and
    5/sample_count (fewer than ~5 hits say nothing about a rate).  An exact
    entry is usable when its measure is positive: it is exact however small,
    so a deep exact ladder (1e-30 and below) fits over its whole length.
    The window is the longest run of consecutive usable entries ending at
    the last usable one — the asymptotic end of the ladder.
    """
    eps_floor = 10.0 * np.finfo(float).eps

    def usable(e):
        if e.method != METHOD_MC:
            return e.measure > 0.0
        floor = eps_floor
        if e.sample_count > 0:
            floor = max(floor, 5.0 / e.sample_count)
        return e.measure > floor

    flags = [usable(e) for e in ladder.entries]
    if not any(flags):
        raise ValueError("no ladder entries above the fit floor")
    last = max(i for i, f in enumerate(flags) if f)
    first = last
    while first > 0 and flags[first - 1]:
        first -= 1
    return ladder.entries[first].n, ladder.entries[last].n


def fit_rate_function(ladder: DeviationLadder, window=None) -> RateFunctionFit:
    """Least-squares fit of log(measure) = log C - h n over a window of horizons.

    window is an inclusive (n_lo, n_hi) pair; None picks the default window
    (see default_fit_window).  Zero-measure entries inside the window are
    dropped and counted.  Fewer than 4 usable points is an error.
    """
    if window is None:
        window = default_fit_window(ladder)
    lo, hi = window
    inside = [e for e in ladder.entries if lo <= e.n <= hi]
    usable = [e for e in inside if e.measure > 0.0]
    dropped = len(inside) - len(usable)
    if len(usable) < 4:
        raise ValueError(f"need at least 4 positive entries in window {window}, got {len(usable)}")
    x = np.array([e.n for e in usable], dtype=float)
    y = np.log(np.array([e.measure for e in usable]))
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    resid = y - pred
    ss_res = float(np.sum(resid * resid))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFunctionFit(C=float(np.exp(intercept)), h=float(-slope),
                           fit_window=(int(lo), int(hi)), r_squared=r2,
                           residual_max=float(np.max(np.abs(resid))),
                           dropped_zero_entries=dropped)


# ---------------------------------------------------------------------------
# serialization

LADDER_CSV_COLUMNS = ("n", "measure", "std_error", "samples", "method")


def write_csv(path, columns, rows):
    """Write a header and the rows of one table; floats are written by repr."""
    import csv  # here: only --format csv writes a table
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


def ladder_rows(ladder: DeviationLadder):
    """A ladder's entries as the report stores them, one dict per horizon."""
    return [
        {"n": e.n, "measure": e.measure, "std_error": e.std_error,
         "samples": e.sample_count, "method": e.method}
        for e in ladder.entries
    ]


def ladder_table(rows):
    """CSV columns and rows of a ladder in its report form (see ladder_rows)."""
    return LADDER_CSV_COLUMNS, [[r[c] for c in LADDER_CSV_COLUMNS] for r in rows]


def ladder_to_csv(ladder: DeviationLadder, path):
    write_csv(path, *ladder_table(ladder_rows(ladder)))
