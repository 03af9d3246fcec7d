"""Deviation-set measures: sampled ladders, exact oracles, and rate fits.

The central object is the measure of the deviation set

    K(alpha, n) = { x : |(1/n) sum_{j<n} phi(f^j x) - phibar| >= alpha }

as a function of the horizon n.  Ladders of these measures are estimated by
Monte Carlo over orbit ensembles, or computed exactly for the digit
observable (binary digit frequencies are Bernoulli(1/2), so the measure is
a binomial tail).  An exponential-decay fit  measure ~ C * exp(-n h)
extracts the empirical rate h, to be compared against the closed-form
Bernoulli rate.

Thresholds are closed (>=).  The exact oracle compares |k/n - 1/2| against
Fraction(alpha) — the exact binary value of the float argument — which is
the same test the float estimator applies to exact dyadic frequencies, so
the two routes agree even when k/n lands exactly on the threshold.

Monte Carlo counts are exact float64 counts, found cheaply, by the screen
rule of observables (`screen`, `terms`, `undecided`).  For cos1 each
chunk's orbits are first summed with one fused step per orbit step: the
fixed-point ensembles write the float32 phases 2 pi x_1 straight from the
top 24 bits of their state into a kept array, the cosine is taken there in
place (numpy's float32 cos is vectorised, its float64 cos is not), and the
terms are summed in float32 runs of at most 8 steps that end at every
horizon, each run then added into the float64 sum.  At every horizon the
deviations are computed in place, and all thresholds are counted from one
broadcast comparison.  A screened average is within
band = observables.float32_band(sys, obs) of the float64 average.  A
sample whose filter deviation is at least alpha + band therefore has
deviation >= alpha, one below alpha - band has not; only the few samples
between, from every chunk, are redrawn from their own counter blocks in
one draw after the last chunk and recounted on one float64 walk (obs.fn
on float64 points) with the closed threshold.  The counts, and so every
report byte, are those of the float64 walk alone.  The others (coord,
bump, and the digit, which has no band at all) are walked in float64 with
band 0, which leaves no sample to recount.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .observables import (DIGIT, DIGIT_MEAN, DIGIT_SYSTEM, DeviationParams, Observable,
                          screen, terms, undecided)
from .systems import (_POINT_CHUNK, System, birkhoff_sums, check_ensemble_horizon,
                      sample_orbit_ensemble)

LN2 = math.log(2.0)

METHOD_MC = "monte-carlo"
METHOD_BINOMIAL = "exact-binomial"

_MIN_SAMPLES = 1_000


@dataclass(frozen=True)
class LadderEntry:
    n: int
    measure: float
    std_error: float
    sample_count: int
    method: str


@dataclass(frozen=True)
class DeviationLadder:
    system_id: str
    observable_id: str
    phibar: float
    alpha: float
    entries: tuple

    def n_values(self):
        return [e.n for e in self.entries]

    def measures(self):
        return [e.measure for e in self.entries]


# ---------------------------------------------------------------------------
# Monte-Carlo estimation

def _hit_grid(sys, obs, phibar, alphas, n_values, sample_count, seed):
    """Hit counts for every (alpha, n) cell, one orbit pass per sample.

    Samples are walked on the calling thread in chunks of _POINT_CHUNK,
    which bound the working set.  Each chunk draws its own counter blocks
    and the counts are integer sums, so the chunk size changes no count.

    Each chunk is walked with the screen of observables.screen, whose
    deviations decide every sample outside the band of every alpha; the
    samples observables.undecided marks at some horizon have their screened
    counts taken back there.  After the last chunk those samples, from every
    chunk, are redrawn from their own counter blocks in one draw and walked
    once in float64, down to the deepest horizon any of them is undecided
    at, and each is counted from that walk at the horizons it was undecided
    at.  A sample's orbit is a pure function of its block, so the counts
    are those of the float64 walk alone.
    """
    n_values = list(n_values)
    alphas = [float(a) for a in alphas]
    column = np.array(alphas)[:, None]
    dtype, band = screen(sys, obs)

    def deviations(ens, dtype, horizons):
        dev = None
        for n, sums in zip(horizons, birkhoff_sums(ens, terms(obs, dtype), horizons)):
            dev = np.divide(sums, n, out=dev)
            dev -= phibar
            yield np.abs(dev, out=dev)

    def counts(dev):
        # a count per row of one broadcast comparison: count_nonzero(axis=1)
        # sums the mask as integers and is slower
        return np.array([np.count_nonzero(hit) for hit in dev >= column])

    hits = np.zeros((len(alphas), len(n_values)), dtype=np.int64)
    near = [[] for _ in n_values]   # j -> indices of the samples undecided at n_j, an array a chunk
    drawn = []                      # each chunk's samples undecided at some horizon, sorted

    def screened_chunk(start, stop):
        # the chunk's ensemble and deviations die on return, before the
        # next chunk's draw
        undecided_rows = []
        for j, dev in enumerate(deviations(sample_orbit_ensemble(sys, seed, start, stop - start),
                                           dtype, n_values)):
            hits[:, j] += counts(dev)
            rows = np.flatnonzero(undecided(dev, band, alphas))
            if rows.size:
                hits[:, j] -= counts(dev[rows])
                near[j].append(start + rows)
                undecided_rows.append(rows)
        if undecided_rows:
            # the union is a mask, not np.unique, which imports numpy.ma on first use
            flag = np.zeros(stop - start, dtype=bool)
            for rows in undecided_rows:
                flag[rows] = True
            drawn.append(start + np.flatnonzero(flag))

    for start in range(0, sample_count, _POINT_CHUNK):
        screened_chunk(start, min(start + _POINT_CHUNK, sample_count))
    if drawn:
        # chunks are disjoint and in order, so the concatenation is sorted
        idx = np.concatenate(drawn)
        deepest = max(j for j, cell in enumerate(near) if cell)
        ens = sample_orbit_ensemble(sys, seed, idx, idx.size)
        for j, dev in enumerate(deviations(ens, np.float64, n_values[:deepest + 1])):
            if near[j]:
                hits[:, j] += counts(dev[np.searchsorted(idx, np.concatenate(near[j]))])
    return hits


def estimate_deviation_measure(sys: System, params: DeviationParams, n: int,
                               sample_count: int, seed: int) -> LadderEntry:
    """Monte-Carlo estimate of the deviation-set measure at one horizon.

    The one-rung ladder of build_deviation_ladders, with its short-circuits:
    alpha <= 0 covers the whole space (measure 1), alpha beyond 2*sup|phi|
    (centered deviations cannot reach it) gives measure 0; neither consumes
    randomness.
    """
    return build_deviation_ladder(sys, params, [n], sample_count, seed).entries[0]


def build_deviation_ladder(sys: System, params: DeviationParams, n_values,
                           sample_count: int, seed: int) -> DeviationLadder:
    """Estimate the deviation measure at every horizon of a ladder.

    All horizons are filled in a single orbit pass (a snapshot of the
    running average at each requested n), which is bit-identical to
    independent per-horizon estimation because each sample's orbit is a
    pure function of its counter block.
    """
    ladders = build_deviation_ladders(sys, params.observable, params.phibar,
                                      [params.alpha], n_values, sample_count, seed)
    return ladders[params.alpha]


def build_deviation_ladders(sys: System, obs: Observable, phibar: float,
                            alphas, n_values, sample_count: int, seed: int) -> dict:
    """Ladders for several thresholds from one shared orbit pass.

    Horizons must be >= 1 and strictly increasing, live thresholds or not;
    one past the budget of the system's ensemble representation (76 for
    the 128-bit dyadic doubling and tent ensembles, 54 for cat) raises
    ValueError rather than returning a wrong measure.
    """
    if sample_count < _MIN_SAMPLES:
        raise ValueError(f"sample_count must be >= {_MIN_SAMPLES}")
    alphas = [float(a) for a in alphas]
    n_values = list(n_values)
    if any(n < 1 for n in n_values):
        raise ValueError("deviation horizons must be >= 1")
    if any(a >= b for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly increasing")
    check_ensemble_horizon(sys, max(n_values, default=0))
    live = [a for a in alphas if 0.0 < a <= 2.0 * obs.sup_abs]
    hits = None
    if live and n_values:
        hits = _hit_grid(sys, obs, phibar, live, n_values, sample_count, seed)
    out = {}
    for a in alphas:
        entries = []
        for j, n in enumerate(n_values):
            if a <= 0.0:
                p, se = 1.0, 0.0
            elif a > 2.0 * obs.sup_abs:
                p, se = 0.0, 0.0
            else:
                p = hits[live.index(a), j] / sample_count
                se = math.sqrt(p * (1.0 - p) / sample_count)
            entries.append(LadderEntry(n, float(p), se, sample_count, METHOD_MC))
        out[a] = DeviationLadder(sys.sid, obs.oid, phibar, a, tuple(entries))
    return out


# ---------------------------------------------------------------------------
# exact binomial oracle (digit observable on the doubling map)

def exact_deviation_measure_digit(alpha: float, n: int) -> float:
    """Exact measure of {|digit frequency - 1/2| >= alpha} at horizon n.

    Digit frequencies of the doubling map are Bernoulli(1/2), so the
    measure is an integer binomial sum over the admissible counts k.  The
    threshold uses Fraction(alpha) — the exact value of the float — so a
    class with k/n exactly on the boundary is classified the same way the
    float comparison classifies it.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return float(Fraction(digit_deviation_count(alpha, n), 2**n))


def digit_deviation_count(alpha: float, n: int) -> int:
    """Number of length-n binary words whose digit frequency k/n has |k/n - 1/2| >= alpha.

    The sum of C(n, k) over the admissible k, compared against
    Fraction(alpha), the exact value of the float.
    """
    a = Fraction(float(alpha))
    half = Fraction(1, 2)
    return sum(math.comb(n, k) for k in range(n + 1) if abs(Fraction(k, n) - half) >= a)


def exact_digit_ladder(alpha: float, n_values) -> DeviationLadder:
    """Exact ladder for the digit observable; no sampling, zero error bars."""
    entries = tuple(
        LadderEntry(int(n), exact_deviation_measure_digit(alpha, int(n)), 0.0, 0, METHOD_BINOMIAL)
        for n in n_values
    )
    return DeviationLadder(DIGIT_SYSTEM, DIGIT.oid, DIGIT_MEAN, float(alpha), entries)


def cramer_bernoulli(alpha: float, with_flag: bool = False):
    """Closed-form large-deviation rate for Bernoulli(1/2) digit frequencies.

    rate(alpha) = ln 2 - H(1/2 + alpha), with H the natural-log entropy.
    Beyond alpha = 1/2 the deviation is impossible and the rate saturates at
    ln 2; with_flag=True returns (rate, capped) to expose that saturation.
    """
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    capped = alpha >= 0.5
    if capped:
        rate = LN2
    else:
        p = 0.5 + alpha
        q = 0.5 - alpha
        rate = LN2 + p * math.log(p) + (q * math.log(q) if q > 0.0 else 0.0)
    if with_flag:
        return rate, capped
    return rate


# ---------------------------------------------------------------------------
# exponential-decay fits

@dataclass(frozen=True)
class RateFunctionFit:
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
