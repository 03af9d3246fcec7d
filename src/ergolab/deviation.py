"""Deviation-set measures: sampled ladders and rate fits.

The central object is the measure of the deviation set

    K(alpha, n) = { x : |(1/n) sum_{j<n} phi(f^j x) - phibar| >= alpha }

as a function of the horizon n.  Ladders of these measures are estimated by
Monte Carlo over orbit ensembles; the digit observable's exact ladder and
its closed-form Cramér rate live with the other exact answers in
ergolab.oracle.  An exponential-decay fit  measure ~ C * exp(-n h)
extracts the empirical rate h.  Thresholds are closed (>=).

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
from .observables import Observable, deviations, screen, undecided
from .systems import (_POINT_CHUNK, System, _kept_array, check_ensemble_horizon, chunk_map,
                      sample_orbit_ensemble)

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

def _hit_grid(sys, obs, phibar, alphas, n_values, sample_count, seed, threads=1):
    """Hit counts for every (alpha, n) cell, one orbit pass per sample.

    Samples are walked in chunks of _POINT_CHUNK (2^16), each one start of
    systems.chunk_map on `threads` threads (at threads 1, or with one
    chunk, a loop on the calling thread).  Each chunk draws its own counter
    blocks and the counts are integer sums, so neither the chunk size nor
    the thread count changes a count.  A chunk holds 2^16 samples per
    thread, as a walked cover band holds 2^16 points, because shorter numpy
    calls spend their time handing the GIL back and forth: on perfbench's
    ladders-deep (2 vCPU, medians of 36) this function took 49 ms at one
    thread and 38 ms at two, but 50 ms at two threads with chunks of 2^15
    samples and 74 ms with 2^14 (BENCH_pooled_ladders.json).  A ladder of
    one chunk, such as perfbench cat-report's 10,000 samples, stays on the
    calling thread: split in two chunks on two threads its ladder stage ran
    74% slower (5.3 against 9.2 ms).  A chunk's ensemble is drawn in pieces
    into its state (systems.sample_orbit_ensemble), and its walk sums into
    arrays its thread keeps (systems._kept_array): made anew at every chunk
    they faulted 960 pages a ladders-deep run at threads 2 and 1,920 at
    threads 1, which ran 4% and 8% longer (in-process pairs,
    BENCH_piece_draws.json).

    Each chunk is walked with the screen of observables.screen, whose
    deviation dev, at a horizon with band b, decides every sample outside
    [t - b, t + b) for a threshold t: the cell (t, n) counts the samples
    with dev >= t + b and marks the band's samples (observables.undecided).
    Whether the ensemble's step doubles the phase, so that the screen may
    take every other cos1 term from the one before it, is read from the
    system's representation (sys.ensemble), not from the ensemble drawn,
    which may be wrapped by anything that forwards points() and advance().
    A chunk returns its hit counts and a flat list of (threshold,
    horizon, marked samples), and the chunks' lists are joined in chunk
    order.  The union of the marked samples, one sort of them all, is then
    redrawn from its counter blocks in one draw, each sample once, and
    walked once in float64, down to the deepest horizon any of them is
    marked at; each entry counts its samples in that walk's list of
    float64 deviations.  A sample's orbit is a pure function of its block,
    so the counts are those of the float64 walk alone.  Band 0 (the
    float64 walk) marks nothing.
    """
    n_values = list(n_values)
    alphas = [float(a) for a in alphas]
    dtype, bands = screen(sys, obs, phibar, n_values)
    doubles = sys.ensemble.doubles_phase

    def screened_chunk(start):
        # the chunk's ensemble dies on return; its sums and deviations are in
        # arrays its thread keeps, read only here
        stop = min(start + _POINT_CHUNK, sample_count)
        hits = np.zeros((len(alphas), len(n_values)), dtype=np.int64)
        near = []    # (i, j, the samples in alpha_i's band at n_j)
        ens = sample_orbit_ensemble(sys, seed, start, stop - start)
        for j, dev in enumerate(deviations(ens, obs, phibar, dtype, n_values, doubles,
                                            _kept_array)):
            for i, t in enumerate(alphas):
                _, hits[i, j], rows = undecided(dev, bands[j], t)
                if rows.size:
                    near.append((i, j, start + rows))
        return hits, near

    chunks = chunk_map(screened_chunk, range(0, sample_count, _POINT_CHUNK), threads)
    hits = sum(h for h, _ in chunks)
    near = [cell for _, c in chunks for cell in c]
    if near:
        # a sort, not np.unique, which imports numpy.ma on first use
        idx = np.sort(np.concatenate([rows for _, _, rows in near]))
        idx = idx[np.append(True, idx[1:] != idx[:-1])]
        deepest = max(j for _, j, _ in near)
        ens = sample_orbit_ensemble(sys, seed, idx, idx.size)
        devs = [d.copy() for d in deviations(ens, obs, phibar, np.float64,
                                             n_values[:deepest + 1])]
        for i, j, rows in near:
            hits[i, j] += np.count_nonzero(devs[j][np.searchsorted(idx, rows)] >= alphas[i])
    return hits


def _check_horizons(n_values) -> list:
    """n_values as a list of strictly increasing integers >= 1 (ValueError naming it)."""
    n_values = list(n_values)
    for n in n_values:
        check_integer("n_values entry", n, 1)
    if any(a >= b for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly increasing")
    return n_values


def build_deviation_ladders(sys: System, obs: Observable, phibar: float,
                            alphas, n_values, sample_count: int, seed: int,
                            threads: int = 1) -> dict:
    """Ladders for several thresholds from one shared orbit pass.

    Horizons must be integers >= 1 and strictly increasing; one past the
    budget of the system's ensemble representation (76 for the 128-bit
    dyadic doubling and tent ensembles, 54 for cat) raises ValueError
    rather than returning a wrong measure.  The samples are walked in
    chunks of 2^16, the starts of systems.chunk_map on `threads` threads
    (an integer >= 1, ValueError naming it; see _hit_grid for the chunk
    size); the ladders are the same at any thread count.
    """
    check_integer("sample_count", sample_count, _MIN_SAMPLES)
    check_integer("threads", threads, 1)
    alphas = [check_real("alphas entry", a) for a in alphas]
    check_real("phibar", phibar, ends="()")
    n_values = _check_horizons(n_values)
    check_ensemble_horizon(sys, max(n_values, default=0))
    hits = _hit_grid(sys, obs, phibar, alphas, n_values, sample_count, seed, threads)
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


def least_squares_line(x, y):
    """(slope, intercept, residuals) of the least-squares line y ~ slope x + intercept."""
    slope, intercept = np.polyfit(x, y, 1)
    return slope, intercept, y - (slope * x + intercept)


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
    slope, intercept, resid = least_squares_line(x, y)
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
