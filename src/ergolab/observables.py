"""Observables, time and space averages, and deviation from a space average.

An observable is a real function of a point together with the regularity
data the dimension machinery needs: a global Lipschitz constant (w.r.t. the
system's metric) and a sup-norm bound.  The catalog:

    cos1          cos(2*pi*x1)                       Lip 2*pi, sup 1
    coord         x1 on intervals; circle distance   Lip 1
                  to 0 on the torus (sup 1/2)
    bump(a, w)    plateau of width w >= 0 around     Lip 1/a,  sup 1
                  the domain midpoint, linear ramps
                  of length a > 0 down to 0

OBSERVABLES is the one place an observable id is decided on: each entry
declares its constructor and its parameter rules.  The digit observable,
discontinuous and so no catalog entry, lives with its exact law in
ergolab.oracle.

Time averages are arithmetic means of the observable along the first n
orbit points (j = 0..n-1).  `deviation` measures |time average - phibar|,
the quantity whose level sets the deviation ladders and covers estimate;
`deviations` is the one walk that yields it, at every horizon, along any
orbit representation, and `max_deviation` bounds it, the one rule of
whether a deviation set can be non-empty.  The space average phibar
(`srb_space_average`) is a Monte Carlo mean, each chunk one start of the
chunk pool, or off Lebesgue measure a mean of time averages.

Every threshold test of the lab, dev >= t, is screened by one rule,
`undecided`: a cheaper deviation within a proven band of the float64
walk's decides every row outside [t - band, t + band), counted at
t + band, and the rows inside are recomputed by the float64 walk.
`screen` picks the cheaper walk as a point dtype.  cos1, the character
k = e_1, whose float64 evaluation calls scalar libm cos, gets float32
with a band per horizon, `float32_band`: its terms (`terms`) are the
cosines of the float32 phases that the orbits hand out, taken in place,
and its walk stays in float32 from the phases through the sums, the
deviations and the threshold comparisons.  The others (coord, bump) are
a few float64 array passes, which a float32 pass plus its recount does
not beat: they get float64 points with bands of 0, the plain float64
walk, which leaves no row undecided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import check_integer, check_real
from .rng import STREAM_ORBIT_SEED, STREAM_SPACE_AVG, pieces, raw_blocks
from .systems import (_TWO_PI, CatalogEntry, Param, System, _as_batch, _check_domain,
                      _FloatOrbits, _kept_array, _new_array, birkhoff_sums, catalog_entry,
                      chunk_map, domain_diameter, domain_points, iterate)


@dataclass(frozen=True)
class Observable:
    """A scalar observable with Lipschitz/sup regularity data.

    `fn` maps an (N, d) batch to an (N,) array.  `lip` may be None for
    discontinuous observables; such observables are rejected by operations
    that need a modulus of continuity.  `character` is the integer
    frequency vector k of an observable cos(2 pi <k, x>) (cos1: k = e_1),
    and None for the others; k = e_1 has the float32 screen (see `screen`).
    """

    oid: str
    fn: Callable = field(repr=False, compare=False)
    lip: float | None = None
    sup_abs: float = 1.0
    params: tuple = ()
    character: tuple | None = None


def _cos1(oid, sys):
    return Observable(oid, lambda p: np.cos(_TWO_PI * p[:, 0]),
                      lip=_TWO_PI, sup_abs=1.0, character=(1,) + (0,) * (sys.d - 1))


def _circle_distance(p):
    # distance to 0 on the circle, min(x, 1 - x): the 1-Lipschitz sawtooth.
    # Walked covers call it once a step, so it allocates its result only
    d = np.subtract(1.0, p[:, 0])
    return np.minimum(p[:, 0], d, out=d)


def _coord(oid, sys):
    if sys.domain == "torus":
        return Observable(oid, _circle_distance, lip=1.0, sup_abs=0.5)
    return Observable(oid, lambda p: p[:, 0], lip=1.0, sup_abs=max(abs(sys.lo), abs(sys.hi)))


def _bump(oid, sys, a, w):
    # on the torus the centre is 1/2 and |x - 1/2| <= 1/2 is the circle distance;
    # fn, like _circle_distance, allocates its result only
    center = (sys.lo + sys.hi) / 2.0

    def fn(p):
        d = np.subtract(p[:, 0], center)
        np.abs(d, out=d)
        d -= w / 2.0
        d /= a
        np.subtract(1.0, d, out=d)
        return np.clip(d, 0.0, 1.0, out=d)

    return Observable(oid, fn, lip=1.0 / a, sup_abs=1.0, params=(("a", a), ("w", w)))


OBSERVABLES = {
    "cos1": CatalogEntry(_cos1),
    "coord": CatalogEntry(_coord),
    "bump": CatalogEntry(_bump, (Param("a", 0.0, math.inf, "()"),
                                 Param("w", 0.0, math.inf, "[)"))),
}


def get_observable(oid: str, sys: System, **params) -> Observable:
    """Build a catalog observable adapted to a system's domain (see OBSERVABLES)."""
    entry, kw = catalog_entry(OBSERVABLES, "observable", oid, params)
    return entry.build(oid, sys, **kw)


_F32_UNIT = 2.0**-24  # unit roundoff of float32
_F32_HORIZON = 1 << 20  # the deepest horizon float32_band bounds


def float32_band(sys: System, obs: Observable, n: int) -> float | None:
    """Bound on |screened deviation - float64 deviation| at horizon n, or None without one.

    band(n) = 16 * (lip * sqrt(d) * R + 2 * sup_abs) * u + 2 * gamma_{n-1} * sup_abs,

    u = 2^-24, R = max(|lo|, |hi|), gamma_k = k u / (1 - k u).  None for an
    observable without a Lipschitz bound, or past n = 2^20.  It holds for
    deviations from a phibar with |phibar| <= sup_abs (a space average of
    obs is one; `screen` walks any other in float64), compared with
    thresholds as `undecided` compares them.

    A screened deviation takes fn on float32 points (for cos1, the cosines
    of the orbits' float32 phases), sums the terms in float32
    (systems.birkhoff_sums), and divides, subtracts and compares in float32
    (`deviations`).  Against the float64 deviation it errs by:

    1. Rounding the point to float32 moves each coordinate by at most u*R,
       the point by at most sqrt(d)*u*R, and fn by at most lip*sqrt(d)*u*R.
    2. Float32 arithmetic inside fn.  Each rounding is a relative error u,
       either on the argument side (2*pi and 2*pi*x, the centre, x - c,
       1 - d, the plateau half-width), moving fn by at most lip*R*u where
       fn is not flat, or on a quantity of fn's own size (the ramp width,
       the ramp quotient q, 1 - q), moving it by at most sup_abs*u.  cos1
       rounds twice, coord at most once, bump at most four times of each
       kind: at most 4*(lip*R + sup_abs)*u.  The screen's phases round no
       worse: a float batch's, fl(fl(x) fl(2*pi)), rounds as cos1's fn on
       the float32 point does, and a fixed-point ensemble's signed-word phase (systems._phase),
       which has the cosine of 2*pi*x, is within 3*pi*u*(1 + 3u) +
       2*pi*2^-32 < 1.51 * lip * u of it (cos1: lip = 2*pi, R = 1), inside
       the 3*lip*R*u that terms 1 and 2 give cos1's argument.
    3. numpy's float32 cos is held to 2 ulp by numpy's own accuracy tests
       (1.42 ulp is the largest seen on 2*10^7 points in [0, 14], and on
       2*10^7 in [-pi, pi], the signed-word phases' range), and an
       ulp of a value of size sup_abs is at most 2*u*sup_abs: at most
       4*sup_abs*u.
    3a. Doubled terms.  On the doubling and tent ensembles every odd step's
       term is d = fl(2 fl(c^2) - 1), c the even term before it (`terms`).
       By terms 2 and 3 c is within e = 1.51*2*pi*u + 4u < 13.5u of
       C = cos 2 pi x, x the float64 point.  |c^2 - C^2| = |c - C||c + C|
       <= 2e + e^2, fl(c^2) and fl(. - 1) each add at most u (both are at
       most 1 in size) and doubling is exact, so d is within
       4e + 2e^2 + 3u < 57u of 2 C^2 - 1 = cos 4 pi x, the cosine of the
       phase of D x and of T x alike.  The float64 term reads the next
       point x', the top 53 bits of the next orbit point, within 3*2^-53 of
       D x or T x (mod 1): their cosines differ by under 2^-24 * u.  That
       is inside the 8*(2*pi + 1)*u > 58.2u that terms 1-3 allow a cos1
       term (below).  A float batch's cos1 term errs by up to (6*pi + 4)*u,
       and one doubled from it by up to about 94u, past that: float
       batches take every cosine.
    4. The float32 sum.  n terms of size at most sup_abs (float32 cos stays
       in [-1, 1]), added one by one in float32, are within
       gamma_{n-1} * n * sup_abs of their exact sum (Higham, Accuracy and
       Stability of Numerical Algorithms, 2nd ed., eq. 4.4): the average
       within gamma_{n-1} * sup_abs.
    5. The rest of the float32 deviation, each a relative error u:
       dividing the sum by n (n is exact in float32), of a quotient of size at
       most sup_abs (1 + gamma_{n-1}); rounding phibar; subtracting, of a
       difference of size at most sup_abs (2 + gamma_{n-1}) (1 + u).  With
       gamma_{n-1} <= 2^-4 up to n = 2^20 these are under 4.2*sup_abs*u.
       The float64 deviation's own error (libm's cos, its argument, the
       float64 sum) stays under 2^-31 * sup_abs = 2^-7 * sup_abs * u.
    6. The thresholds.  Under NEP 50, t, t - band and t + band (Python
       floats) round to float32 against a float32 deviation, each by a
       relative u (1 + 2^-29).  Only a t below the largest deviation,
       sup_abs (2 + gamma_{n-1}) (1 + u)^2 < 2.07 * sup_abs, can split
       rows, so a threshold moves by under 2.07*sup_abs*u + u*band, whose
       last part is second order in u.

    Terms 1-3 bound each term, and so the average of n of them, by
    8 * (lip*sqrt(d)*R + sup_abs) * u.  Terms 4-6 add gamma_{n-1} * sup_abs
    and under 6.3 * sup_abs * u, so the deviation's error plus the move of
    a threshold stays under 8 * (lip*sqrt(d)*R + 2*sup_abs) * u +
    gamma_{n-1} * sup_abs, half the band.  A deviation at or above
    fl(t + band) thus has float64 deviation >= t, one below fl(t - band)
    has float64 deviation < t, and either compares with fl(t) as it does
    with fl(t + band) or fl(t - band) (rounding is monotone).

    Measured on 10^6 random points, every catalog pair's per-term error
    stays under an eleventh of band(1) (the closest, cos1 on logistic
    c = 0.2, at 1/11.4); the doubled terms of two 65,536-sample doubling
    and tent ensembles (seeds 1 and 2, steps 1..75) stay within 14.2u of
    the float64 cosines, 1/4.0 of their 57u and 1/9.3 of band(1).  On two
    65,536-sample cos1 ensembles per system at phibar 0, every screened
    deviation stays within an eleventh of band(n) of the float64 one at
    every horizon n (doubling and tent n <= 76, each at 1/29.7 on seeds 1
    and 2, at n = 1, and 1/32.1 from n = 2 on, with the doubled terms and
    the tent's phases read from the folded words; cat n <= 54, at 1/39.0;
    logistic c = 0.2, -1.7 and -2, n <= 40, the closest at 1/11.6).
    """
    if obs.lip is None or n > _F32_HORIZON:
        return None
    r = max(abs(sys.lo), abs(sys.hi))
    gamma = (n - 1) * _F32_UNIT / (1.0 - (n - 1) * _F32_UNIT)
    return (16.0 * (obs.lip * math.sqrt(sys.d) * r + 2.0 * obs.sup_abs) * _F32_UNIT
            + 2.0 * gamma * obs.sup_abs)


def _is_e1(obs: Observable) -> bool:
    """Whether obs is the character k = e_1, cos(2 pi x_1): cos1.  The one
    test of both cheaper evaluations: the float32 screen (`screen`) and a
    cover's closed form (dimension.build_cover_ladder)."""
    k = obs.character
    return k is not None and k[0] == 1 and not any(k[1:])


def screen(sys: System, obs: Observable, phibar: float, horizons):
    """(dtype, bands): the point dtype that screens threshold tests of the
    deviations from phibar at the horizons, and its band at each.

    cos1 (the character e_1) with a float32 band walks in float32 from its
    points to its deviations (`terms`, `deviations`): a Monte Carlo ladder
    of 65,536 samples (thresholds 0.6, 0.3, 0.15) took 5.5-6.1x less time
    screened than on the float64 walk on doubling (n 8..72) and 3.2-3.4x on
    cat (n 8..52), medians of 7 on a 2-vCPU Xeon.  Its bands are
    float32_band's, which need |phibar| <= sup_abs.  Coord and bump, a few
    array passes either way, ran 5-64% slower screened than plain, and the
    digit has no band: they, and cos1 from any other phibar or past
    float32_band's horizons, get float64 with bands of 0, the float64 walk
    itself.
    """
    horizons = list(horizons)
    if _is_e1(obs) and abs(phibar) <= obs.sup_abs:
        bands = [float32_band(sys, obs, n) for n in horizons]
        if None not in bands:
            return np.float32, bands
    return np.float64, [0.0] * len(horizons)


def terms(obs: Observable, dtype, doubles: bool = False):
    """The term of systems.birkhoff_sums for a walk of obs on points of dtype.

    Float64: obs.fn on the float64 points (points()).  Float32, the screen
    of cos1 (see `screen`): the orbits hand out float32 phases of x_1
    (points(phase=True)), fl(fl(x_1) fl(2 pi)) of a float batch's points
    and the signed-word phase in [-pi, pi) of a fixed-point ensemble's
    (systems._phase), and their cosines are taken in place, with no array
    made per step on a fixed-point ensemble.  No other observable, and no
    other dtype, has a walk.

    With `doubles`, for orbits whose step doubles the phase (the doubling
    and tent ensembles: systems.System.ensemble), the float32 walk takes a
    cosine at even steps only, and each odd step's term is
    fl(2 fl(c^2) - 1) of the even term c before it, cos 2 theta =
    2 cos^2 theta - 1, written over c in its array: that step reads no
    point, so its orbits only advance.  float32_band holds for it on a
    fixed-point ensemble's phases, not on a float batch's.  Such a term
    serves one walk and must see its every step, from the first, as
    birkhoff_sums calls it.  The float64 walk, the screen's reference,
    reads every point whatever `doubles` says.
    """
    if np.dtype(dtype) == np.float64:
        return lambda orbits: obs.fn(orbits.points())
    if np.dtype(dtype) != np.float32 or not _is_e1(obs):
        raise ValueError(f"observable {obs.oid!r} has no {np.dtype(dtype)} walk")

    def cosines(orbits):
        t = orbits.points(phase=True)
        return np.cos(t, out=t)

    if not doubles:
        return cosines
    even = None                # the even step's term, doubled by the odd step after it

    def every_other_cosine(orbits):
        nonlocal even
        if even is None:
            even = cosines(orbits)
            return even
        c, even = even, None
        np.square(c, out=c)    # in place: a new array here costs twice the pass
        c *= 2.0
        c -= 1.0
        return c

    return every_other_cosine


_NO_ROWS = np.empty(0, dtype=np.intp)
_NO_ROWS.flags.writeable = False


def undecided(dev, band: float, t: float):
    """(hit, above, rows): the mask dev >= t + band, its count, and the flat
    indices of the entries of dev in [t - band, t + band), sorted.

    dev is within band of the float64 deviation d at every entry, with room
    for t - band and t + band to round to dev's dtype (float32_band, term
    6).  An entry at or above t + band has d >= t, one below t - band has
    d < t: `hit` is d >= t exactly but at `rows`, which the float64 walk
    decides.  The mask at t + band comes first, and the band's mask is made
    only where the count at t - band differs from it: most bands hold no
    entry.  Band 0 leaves no row: `hit` is the plain float64 walk's.
    """
    hit = dev >= t + band
    above = np.count_nonzero(hit)
    if band == 0.0:
        return hit, above, _NO_ROWS
    near = dev >= t - band
    if np.count_nonzero(near) == above:
        return hit, above, _NO_ROWS
    near ^= hit               # fl(t - band) <= fl(t + band): hit lies inside near
    return hit, above, np.flatnonzero(near)


def time_average(sys: System, obs: Observable, x, n: int):
    """Mean of the observable over the orbit points f^j(x), j = 0..n-1, shaped like x.

    One point (a scalar, or a length-d vector) gives a float, a batch an (N,)
    array.  The domain is checked before stepping; an n that is not an
    integer >= 1 raises ValueError.
    """
    check_integer("n", n, 1)
    pts, tag = _as_batch(sys, x)
    _check_domain(sys, pts)
    avg = next(birkhoff_sums(_FloatOrbits(sys, pts), terms(obs, np.float64), [n])) / n
    return float(avg[0]) if tag in ("scalar", "point") else avg


def deviations(orbits, obs: Observable, phibar: float, dtype, horizons, doubles=False,
               buffer=_new_array):
    """Yield |S_n / n - phibar| of obs along the orbits at each horizon n, in dtype.

    S_n sums terms(obs, dtype, doubles) by systems.birkhoff_sums, whose rules on
    horizons hold, and the quotient, difference and absolute value are
    taken in dtype too, phibar and n cast to it (float32_band bounds the
    float32 ones).  One array, from buffer (as birkhoff_sums takes it), is
    updated in place: read each before the next.
    """
    cast = np.dtype(dtype).type
    phibar = cast(phibar)
    dev = None
    walk = birkhoff_sums(orbits, terms(obs, dtype, doubles), horizons, buffer)
    for n, sums in zip(horizons, walk):
        if dev is None:
            dev = buffer("deviations", sums.shape, sums.dtype.type)
        dev = np.divide(sums, cast(n), out=dev)
        dev -= phibar
        yield np.abs(dev, out=dev)


def deviation(sys: System, obs: Observable, phibar: float, x, n: int):
    """|time average - phibar|: distance of x from typical behavior at horizon n.
    phibar must be finite (ValueError naming it)."""
    check_real("phibar", phibar, ends="()")
    avg = time_average(sys, obs, x, n)
    return abs(avg - phibar) if np.isscalar(avg) else np.abs(avg - phibar)


def max_deviation(obs: Observable, phibar: float) -> float:
    """sup|phi| + |phibar|, which no deviation from phibar exceeds (rounding
    is monotone: no float64 one either), so a threshold above it has an
    empty deviation set."""
    return obs.sup_abs + abs(phibar)


def modulus_delta(obs: Observable, alpha: float, diameter: float) -> float:
    """Ball radius below which the observable moves by strictly less than alpha/2.

    delta = min(alpha / (2 * lip) * (1 - 1e-6), diameter).  The (1 - 1e-6)
    factor keeps the sup over the *closed* ball strictly under alpha/2.
    Constant observables (lip == 0) get the diameter; observables without a
    Lipschitz bound are rejected — the caller must supply a radius.
    """
    if obs.lip is None:
        raise ValueError(f"observable {obs.oid!r} has no Lipschitz bound; supply delta explicitly")
    check_real("alpha", alpha, 0.0, ends="(]")
    lip = obs.lip if obs.lip > 0.0 else 1e-300
    return min(alpha / (2.0 * lip) * (1.0 - 1e-6), diameter)


def modulus_delta_for(sys: System, obs: Observable, alpha: float) -> float:
    return modulus_delta(obs, alpha, domain_diameter(sys))


class SpaceAverage(NamedTuple):
    """A space average of an observable with its sampling metadata."""

    value: float
    std_error: float
    method: str              # "lebesgue-mc" | "empirical-orbit"
    sample_count: int
    seed: int
    orbit_length: int = 0
    transient: int = 0
    seed_point: float | tuple | None = None


_CHUNK = 1 << 16  # samples per Lebesgue space-average chunk: the chunks fix the summation order
_ORBITS = 100     # orbits of an empirical-orbit space average, one time average each


def _sums(vals):
    return float(np.sum(vals)), float(np.sum(vals * vals))   # what _mean_and_error folds


def _mean_and_error(sums, count: int):
    """Mean and standard error of `count` values from their chunks' _sums, folded in order."""
    total = total_sq = 0.0
    for s, sq in sums:
        total += s
        total_sq += sq
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0) * count / (count - 1)
    return mean, math.sqrt(var / count)


def srb_space_average(sys: System, observable: Observable, seed: int,
                      samples: int = 1_000_000,
                      orbit_length: int = 10_000_000,
                      transient: int = 10_000, threads: int = 1) -> SpaceAverage:
    """Average an observable against the system's natural measure.

    Lebesgue systems: Monte Carlo over `samples` uniform points of the
    space-average stream.  Each chunk of _CHUNK samples is one start of
    systems.chunk_map on `threads` threads, which reads it from one
    generator in pieces (rng.pieces) and evaluates each into an array its
    thread keeps (systems._kept_array; a new one a chunk faulted its pages
    in anew) and returns its _sums, folded in chunk order
    (_mean_and_error): sample i is block i of the stream and fn is
    elementwise, so neither the pieces nor the thread count changes a bit
    of the value or its standard error.
    Empirical-orbit systems (logistic): the mean of the time averages over
    orbit_length // _ORBITS steps of _ORBITS orbits, orbit i started at
    block i of the orbit-seed stream and stepped `transient` times first
    (iterate), with the standard error of those means, on the calling
    thread.  Each count must be an integer >= 0 on every system, the ones
    it does not use too, the samples used >= 2, the orbit_length used >=
    _ORBITS, and threads an integer >= 1 (ValueError naming it).
    """
    for name, count in (("samples", samples), ("orbit_length", orbit_length),
                        ("transient", transient)):
        check_integer(name, count, 0)
    check_integer("threads", threads, 1)
    if sys.srb_kind == "lebesgue":
        check_integer("samples", samples, 2)

        def chunk_sums(c):
            vals = _kept_array("space average", (min(_CHUNK, samples - c),))
            for p, blocks in pieces(seed, STREAM_SPACE_AVG, c, vals.size):
                vals[p:p + len(blocks)] = observable.fn(domain_points(sys, blocks))
                del blocks      # before the next piece is read: one alive a thread
            return _sums(vals)

        sums = chunk_map(chunk_sums, range(0, samples, _CHUNK), threads)
        return SpaceAverage(*_mean_and_error(sums, samples), "lebesgue-mc", samples, seed)

    check_integer("orbit_length", orbit_length, _ORBITS)
    starts = domain_points(sys, raw_blocks(seed, STREAM_ORBIT_SEED, 0, _ORBITS))
    steps = orbit_length // _ORBITS
    means = time_average(sys, observable, iterate(sys, starts, transient), steps)
    x0 = float(starts[0, 0]) if sys.d == 1 else tuple(map(float, starts[0]))
    return SpaceAverage(*_mean_and_error([_sums(means)], _ORBITS), "empirical-orbit",
                        steps * _ORBITS, seed, steps * _ORBITS, transient, x0)
