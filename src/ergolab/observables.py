"""Observables, time averages, and deviation from a space average.

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
declares its constructor and its parameter rules.

Time averages are arithmetic means of the observable along the first n
orbit points (j = 0..n-1).  `deviation` measures |time average - phibar|,
the quantity whose level sets the deviation ladders and covers estimate.

Every threshold test of the lab, dev >= t, is screened by one rule: a
cheaper deviation within a proven band of the float64 walk's decides every
row outside [t - band, t + band), and `undecided` marks the rows inside,
which are recomputed by the float64 walk.  `screen` picks the cheaper
walk as a point dtype.  cos1, the character k = e_1, whose float64
evaluation calls scalar libm cos, gets float32 with band `float32_band`:
its terms (`terms`) are the cosines of the float32 phases 2 pi x_1 that
the orbits hand out, taken in place and summed in float32 runs.  The
others (coord, bump) are a few float64 array passes, which a float32 pass
plus its recount does not beat: they get float64 points with band 0, the
plain float64 walk, which leaves no row undecided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .systems import _TWO_PI, Param, System, catalog_entry, domain_diameter, orbit_average


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


def _coord(oid, sys):
    if sys.domain == "torus":
        # distance to 0 on the circle: the 1-Lipschitz sawtooth
        return Observable(oid, lambda p: np.minimum(p[:, 0], 1.0 - p[:, 0]), lip=1.0, sup_abs=0.5)
    return Observable(oid, lambda p: p[:, 0], lip=1.0, sup_abs=max(abs(sys.lo), abs(sys.hi)))


def _bump(oid, sys, a, w):
    center = (sys.lo + sys.hi) / 2.0
    torus = sys.domain == "torus"

    def fn(p):
        d = np.abs(p[:, 0] - center)
        if torus:
            d = np.minimum(d, 1.0 - d)
        return np.clip(1.0 - (d - w / 2.0) / a, 0.0, 1.0)

    return Observable(oid, fn, lip=1.0 / a, sup_abs=1.0, params=(("a", a), ("w", w)))


@dataclass(frozen=True)
class ObservableEntry:
    """A catalog observable: `build(oid, sys, **params)` constructs it for a
    system's domain, and `params` are its parameter rules."""

    build: Callable
    params: tuple = ()


OBSERVABLES = {
    "cos1": ObservableEntry(_cos1),
    "coord": ObservableEntry(_coord),
    "bump": ObservableEntry(_bump, (Param("a", 0.0, math.inf, "()"),
                                    Param("w", 0.0, math.inf, "[)"))),
}


def get_observable(oid: str, sys: System, **params) -> Observable:
    """Build a catalog observable adapted to a system's domain (see OBSERVABLES)."""
    entry, kw = catalog_entry(OBSERVABLES, "observable", oid, params)
    return entry.build(oid, sys, **kw)


# The digit observable, the leading binary digit (half-interval indicator).
# Its frequencies along doubling orbits are Bernoulli(1/2), so its deviation
# measure has the exact binomial oracle of `deviation`.  It is discontinuous
# (lip None), so it is no catalog entry: moduli and covers refuse it.
DIGIT = Observable("digit", lambda p: (p[:, 0] >= 0.5).astype(np.float64),
                   lip=None, sup_abs=1.0)
DIGIT_MEAN = 0.5
DIGIT_SYSTEM = "doubling"


_F32_UNIT = 2.0**-24  # unit roundoff of float32


def float32_band(sys: System, obs: Observable) -> float | None:
    """Bound on |screened average - float64 average| over the domain, or None without a Lipschitz bound.

    band = 16 * (lip * sqrt(d) * R + 2 * sup_abs) * u,  u = 2^-24, R = max(|lo|, |hi|).

    A screened average takes fn on float32 points and sums the terms in
    float32 runs (systems.birkhoff_sums); it differs from the float64 one
    by four errors:

    1. Rounding the point to float32 moves each coordinate by at most u*R,
       the point by at most sqrt(d)*u*R, and fn by at most lip*sqrt(d)*u*R.
       Truncating a coordinate in [0, 1) to 24 fractional bits, as the
       fixed-point ensembles do, moves it by less than 2^-24 = u*R too.
    2. Float32 arithmetic inside fn.  Each rounding is a relative error u,
       either on the argument side (2*pi and 2*pi*x, the centre, x - c,
       1 - d, the plateau half-width), moving fn by at most lip*R*u where
       fn is not flat, or on a quantity of fn's own size (the ramp width,
       the ramp quotient q, 1 - q), moving it by at most sup_abs*u.  cos1
       rounds twice, coord at most once, bump at most four times of each
       kind: at most 4*(lip*R + sup_abs)*u.  The screen's phases
       (systems._fraction) round exactly as 2*pi*x does.
    3. numpy's float32 cos is held to 2 ulp by numpy's own accuracy tests
       (1.42 ulp is the largest seen on 2*10^7 points in [0, 14]), and an
       ulp of a value of size sup_abs is at most 2*u*sup_abs: at most
       4*sup_abs*u.
    4. The float32 runs.  A run of k <= 8 terms, each of size at most
       sup_abs (float32 cos stays in [-1, 1]), added one by one in float32,
       is within gamma_7 * k * sup_abs of their exact sum, gamma_7 =
       7u / (1 - 7u) < 8u (Higham, Accuracy and Stability of Numerical
       Algorithms, 2nd ed., eq. 4.4).  The runs of a horizon n split its n
       terms, so the sum is within gamma_7 * n * sup_abs and the average
       within 8*sup_abs*u.

    Terms 1-3 bound each term, and so the average of n of them, by
    8 * (lip*sqrt(d)*R + sup_abs) * u; with term 4 that is at most
    8 * (lip*sqrt(d)*R + 2*sup_abs) * u, half the band.  The float64
    accumulation of the runs adds under 1e-13, negligible beside a band of
    at least 32u ~ 2e-6.  Measured on 10^6 random points, every catalog
    pair's per-term error stays under an eleventh of its band (the closest,
    cos1 on logistic c = 0.2, at 1/11.4); on 65,536-sample cos1 ensembles
    (n <= 52, logistic n <= 40) the screened average stays within a
    sixteenth of the band of the float64 one (the closest, logistic
    c = 0.2, at 1/16.8).
    """
    if obs.lip is None:
        return None
    r = max(abs(sys.lo), abs(sys.hi))
    return 16.0 * (obs.lip * math.sqrt(sys.d) * r + 2.0 * obs.sup_abs) * _F32_UNIT


def _is_e1(obs: Observable) -> bool:
    """Whether obs is the character k = e_1, cos(2 pi x_1): cos1."""
    k = obs.character
    return k is not None and k[0] == 1 and not any(k[1:])


def screen(sys: System, obs: Observable):
    """(dtype, band): the point dtype that screens threshold tests, and its band.

    cos1 (the character e_1) with a float32 band walks on float32 points,
    its terms taken by `terms`: a Monte Carlo ladder of 65,536 samples
    (thresholds 0.6, 0.3, 0.15) took 5.5-6.1x less time screened than on
    the float64 walk on doubling (n 8..72) and 3.2-3.4x on cat (n 8..52),
    medians of 7 on a 2-vCPU Xeon.  Coord and bump, a few array passes
    either way, ran 5-64% slower screened than plain, and the digit has no
    band: they get (float64, 0.0), the float64 walk itself.
    """
    band = float32_band(sys, obs) if _is_e1(obs) else None
    if band is None:
        return np.float64, 0.0
    return np.float32, band


def terms(obs: Observable, dtype):
    """The term of systems.birkhoff_sums for a walk of obs on points of dtype.

    Float64: obs.fn on the float64 points.  Float32, the screen of cos1
    (see `screen`): the orbits hand out the float32 phases 2 pi x_1
    (points(float32, phase=True)), which equal fl(2 pi x_1) of the float32
    points bit for bit, and their cosines are taken in place: each term is
    cos1's on the float32 point, with no array made per step on a
    fixed-point ensemble.  No other observable has a float32 walk.
    """
    if np.dtype(dtype) == np.float64:
        return lambda orbits: obs.fn(orbits.points())
    if not _is_e1(obs):
        raise ValueError(f"observable {obs.oid!r} has no {np.dtype(dtype)} walk")

    def cosines(orbits):
        t = orbits.points(dtype, phase=True)
        return np.cos(t, out=t)

    return cosines


def undecided(dev, band: float, thresholds):
    """Mask of the rows of dev in [t - band, t + band) for some threshold t.

    dev is within band of the float64 deviation d at every row.  A row at or
    above t + band has d >= t, one below t - band has d < t: outside the
    mask, dev >= t holds exactly when d >= t does.  Band 0 marks no row:
    the plain float64 walk leaves nothing to recompute, and its mask is
    returned without a comparison.

    The first threshold's band is the mask, written in place, and each
    later one is or-ed into it.  One broadcast comparison of every
    threshold at once measured slower on the closed-form covers: about 2%
    on doubling levels 10..17 (alpha and tau_n) and 7% on cat levels 1..3
    (alpha alone), and no faster on three-threshold ladders.
    """
    mask = None
    if band != 0.0:
        for t in thresholds:
            near = dev >= t - band
            near &= dev < t + band
            if mask is None:
                mask = near
            else:
                mask |= near
    return np.zeros(np.shape(dev), dtype=bool) if mask is None else mask


def time_average(sys: System, obs: Observable, x, n: int):
    """Mean of the observable over orbit points f^j(x), j = 0..n-1."""
    return orbit_average(sys, obs.fn, x, n)


def deviation(sys: System, obs: Observable, phibar: float, x, n: int):
    """|time average - phibar|: distance of x from typical behavior at horizon n."""
    avg = time_average(sys, obs, x, n)
    return abs(avg - phibar) if np.isscalar(avg) else np.abs(avg - phibar)


@dataclass(frozen=True)
class DeviationParams:
    """The (observable, phibar, alpha) triple defining a deviation set."""

    observable: Observable
    phibar: float
    alpha: float


def modulus_delta(obs: Observable, alpha: float, diameter: float) -> float:
    """Ball radius below which the observable moves by strictly less than alpha/2.

    delta = min(alpha / (2 * lip) * (1 - 1e-6), diameter).  The (1 - 1e-6)
    factor keeps the sup over the *closed* ball strictly under alpha/2.
    Constant observables (lip == 0) get the diameter; observables without a
    Lipschitz bound are rejected — the caller must supply a radius.
    """
    if obs.lip is None:
        raise ValueError(f"observable {obs.oid!r} has no Lipschitz bound; supply delta explicitly")
    if alpha <= 0.0:
        raise ValueError("modulus_delta needs alpha > 0")
    lip = obs.lip if obs.lip > 0.0 else 1e-300
    return min(alpha / (2.0 * lip) * (1.0 - 1e-6), diameter)


def modulus_delta_for(sys: System, obs: Observable, alpha: float) -> float:
    return modulus_delta(obs, alpha, domain_diameter(sys))
