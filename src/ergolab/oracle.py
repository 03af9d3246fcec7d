"""Exact answers: the digit law of the doubling map, its Cramér rate and
its Besicovitch-Eggleston dimension.

The digit observable is the leading binary digit.  Along doubling orbits
its values are the binary digits of the start, independent fair coins under
Lebesgue measure, so its digit frequency at horizon n is Binomial(n, 1/2)/n
and the measure of the deviation set

    K(alpha, n) = { x : |k/n - 1/2| >= alpha },   k the count of ones,

is a binomial tail: the sum of C(n, k) over the admissible k, over 2^n.
Its large-deviation rate is Cramér's, ln 2 - H(1/2 + alpha), and the set
of points whose digit frequency deviates from 1/2 by at least alpha in the
limit has the Besicovitch-Eggleston dimension H(1/2 + alpha) / ln 2, with
H the natural-log entropy.

Thresholds are closed (>=), and every count here is decided in integers:
alpha is the exact binary value p/q of the float, p and q = 2^e > 0 its
integer ratio, and |k/n - 1/2| >= p/q is |2k - n| q >= 2n p after
multiplying by 2nq > 0.  That is the test the float estimators apply to
exact dyadic frequencies, so the exact and sampled routes agree even where
k/n lands on the threshold.  An infinite alpha has no integer ratio and is
refused by name.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .deviation import METHOD_BINOMIAL, DeviationLadder, LadderEntry, _check_horizons
from .errors import check_integer, check_real
from .observables import Observable

LN2 = math.log(2.0)

# The digit observable, the leading binary digit (half-interval indicator).
# It is discontinuous (lip None), so it is no catalog entry: moduli and
# covers refuse it.
DIGIT = Observable("digit", lambda p: (p[:, 0] >= 0.5).astype(np.float64),
                   lip=None, sup_abs=1.0)
DIGIT_MEAN = 0.5
DIGIT_SYSTEM = "doubling"

_BE_DEPTHS = (200, 400, 800)  # cylinder depths of besicovitch_eggleston_dimension's cross-check


def digit_deviation_count(alpha: float, n: int) -> int:
    """Number of length-n binary words whose digit frequency k/n has |k/n - 1/2| >= alpha.

    The sum of C(n, k) over the k the module's integer threshold test
    admits.  n must be an integer >= 1 and alpha finite (ValueError naming
    them).
    """
    check_integer("n", n, 1)
    p, q = check_real("alpha", alpha, ends="()").as_integer_ratio()
    return sum(math.comb(n, k) for k in range(n + 1) if abs(2 * k - n) * q >= 2 * n * p)


def exact_deviation_measure_digit(alpha: float, n: int) -> float:
    """Exact measure of {|digit frequency - 1/2| >= alpha} at horizon n.

    digit_deviation_count(alpha, n) / 2^n, an integer quotient that Python
    rounds correctly.
    """
    return digit_deviation_count(alpha, n) / 2**n


def exact_digit_ladder(alpha: float, n_values) -> DeviationLadder:
    """Exact ladder for the digit observable; no sampling, zero error bars.
    alpha must be finite and horizons strictly increasing integers >= 1
    (ValueError naming them)."""
    alpha = check_real("alpha", alpha, ends="()")
    n_values = _check_horizons(n_values)
    entries = tuple(
        LadderEntry(int(n), exact_deviation_measure_digit(alpha, n), 0.0, 0, METHOD_BINOMIAL)
        for n in n_values
    )
    return DeviationLadder(DIGIT_SYSTEM, DIGIT.oid, DIGIT_MEAN, alpha, entries)


def _entropy_terms(alpha):
    """(p ln p, q ln q) at p = 1/2 + alpha, q = 1/2 - alpha; both callers keep alpha < 1/2."""
    p = 0.5 + alpha
    q = 0.5 - alpha
    return p * math.log(p), q * math.log(q)


def cramer_bernoulli(alpha: float) -> float:
    """Closed-form large-deviation rate for Bernoulli(1/2) digit frequencies.

    rate(alpha) = ln 2 - H(1/2 + alpha), with H the natural-log entropy.
    Beyond alpha = 1/2 the deviation is impossible and the rate saturates at
    ln 2.
    """
    check_real("alpha", alpha, 0.0)
    if alpha >= 0.5:
        return LN2
    plogp, qlogq = _entropy_terms(alpha)
    return LN2 + plogp + qlogq


class BeDimension(NamedTuple):
    alpha: float
    value: float
    cylinder_estimates: tuple  # ((depth, estimate), ...)
    confirmed: bool


def besicovitch_eggleston_dimension(alpha: float) -> BeDimension:
    """Dimension of {binary digit frequency deviates from 1/2 by >= alpha}.

    Closed form: H(1/2 + alpha) / ln 2 with H the natural-log entropy.
    Cross-checked by exact cylinder counts: at depth n the set meets
    digit_deviation_count(alpha, n) cylinders (at least 2, the all-0 and
    all-1 words), and log2(count)/n approaches the dimension from below.
    `confirmed` requires the estimates at the depths _BE_DEPTHS to be
    nondecreasing with the deepest one within 0.01 of the closed form.
    """
    check_real("alpha", alpha, 0.0, 0.5, "()")
    plogp, qlogq = _entropy_terms(alpha)
    value = -(plogp + qlogq) / LN2
    estimates = tuple((n, math.log2(digit_deviation_count(alpha, n)) / n) for n in _BE_DEPTHS)
    vals = [v for _, v in estimates]
    monotone = all(b >= a2 for a2, b in zip(vals[:-1], vals[1:]))
    confirmed = monotone and abs(vals[-1] - value) <= 0.01
    return BeDimension(float(alpha), value, estimates, confirmed)
