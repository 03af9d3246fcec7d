"""Model dynamical systems and their orbit machinery.

The catalog covers four expanding/hyperbolic families on the circle, the
interval, and the 2-torus:

    doubling      x -> 2x (mod 1)          circle,   Lip 2
    tent          x -> 1 - |1 - 2x|        [0, 1],   Lip 2
    cat           (x,y) -> (2x+y, x+y)     2-torus,  Lip (3+sqrt(5))/2
    logistic(c)   x -> x^2 + c             [-b, b],  Lip 2b, b=(1+sqrt(1-4c))/2

Points are plain float64 arrays: a scalar for 1-d systems, a length-d
vector, or an (N, d) batch.  Torus coordinates always live in [0, 1).

Two orbit representations coexist on purpose.  Public orbit operations
(`iterate`, and everything built on them) use float64, which keeps the
worked identities exact (semigroup property, telescoping of averages) and
lets grids and covers be reproduced bit for bit.  Sampled orbit *ensembles*
for the piecewise-affine/integer-matrix systems instead run on 128-bit
fixed-point arithmetic: every float64 is a dyadic rational, so float64
orbits of these maps are exact binary shifts and collapse onto the fixed
point 0 within ~53 steps — a uniform sample would be silently destroyed
long before the horizons the deviation ladders need.  The fixed-point
ensembles are exact and project to points only when an observable is
evaluated.  Every representation hands out two things, by `points(phase)`:
`points()` the float64 (count, d) points, for an observable's fn (the top
53 bits of a fixed-point coordinate, truncated), and `points(phase=True)`,
for the screen of observables.screen, the (count,) float32 phases of x_1
(on a fixed-point ensemble the top 32 bits read as a signed word and
multiplied by 2 pi 2^-32, a phase in [-pi, pi) with the cosine of
2 pi x_1, in one multiply and no shift: `_phase`).  The doubling and
tent ensembles never step their state: they read the point after j steps
at bit offset j of the draw, the tent's folded (_DyadicDoubling).  The
cat ensemble steps its 128-bit state in place, and float64 orbits
(`_FloatOrbits`, the logistic ensemble's too) step in buffers of their
own: once made, no representation allocates points per step.  Every
representation is summed by one kernel,
`birkhoff_sums`, in the terms' dtype (float32 for the screen, float64
otherwise), which observables drives (`time_average`, `deviations`).

The catalog, SYSTEMS, is the one place a system id is decided on: each
entry declares the system's constructor and its parameter rules.  Each
System carries its ensembles' representation, `System.ensemble`, with
its horizon budget (76 for the dyadic doubling and tent ensembles, 54 for
cat; deeper ladders are refused; float64 orbits, the default, have none).
Float64 orbits have one budget for every system, n log2 L <= 45
(FLOAT64_BITS), which covers and the ball lemma enforce.

`chunk_map` is the package's one thread pool: the Lebesgue space average's
pieces and the cover levels' bands run on it.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, ParameterError, check_integer, check_real
from .rng import STREAM_ORBITS, pieces, raw_blocks, uniform01

_TWO_PI = 2.0 * math.pi
_TWO_PI32 = np.float32(_TWO_PI)
_CAT_EXPANSION = (3.0 + math.sqrt(5.0)) / 2.0  # largest singular value of [[2,1],[1,1]]
_POINT_CHUNK = 1 << 16  # points per ladder, cover or flow walk batch: bounds its working set


# ---------------------------------------------------------------------------
# the chunk pool

_pool = None                       # (executor, workers), made on first use
_pool_lock = threading.Lock()


def _forget_pool():
    # a forked child holds a copy of the pool whose workers did not come along
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):             # not on Windows, which does not fork
    os.register_at_fork(after_in_child=_forget_pool)


def _submit(work, count: int) -> list:
    """Submit `count` calls of work to the process's one thread pool; returns their futures.

    The pool is made on first use with `count` workers and kept; a call
    asking for more workers than it has replaces it by a larger one, and
    the old one finishes what it holds."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[1] < count:
            # imported here: concurrent.futures loads logging, which a
            # single-threaded run never needs
            from concurrent.futures import ThreadPoolExecutor
            if _pool is not None:
                _pool[0].shutdown(wait=False)
            _pool = ThreadPoolExecutor(count, thread_name_prefix="ergolab-chunk"), count
        return [_pool[0].submit(work) for _ in range(count)]


def chunk_map(fn, starts, threads: int) -> list:
    """[fn(s) for s in starts], on `threads` threads: the one chunk pool.

    At threads=1, or with fewer than two starts, it is that loop.
    Otherwise the calling thread and min(threads, len(starts)) - 1 workers
    of the process's one pool (`_submit`) claim the starts in order, one at
    a time, until none is left or a call has raised; results come back in
    the order of `starts`.  A worker that has not started when the calling
    thread is done is cancelled, so a chunk_map inside fn never waits on a
    worker that is busy with its caller.  An error is raised once every
    claimed call has returned: the one of the first start whose call
    raised, which is the one the loop raises (every start before it was
    claimed before it).  fn runs on several threads at once, so it returns
    its result and writes nothing that another call reads or writes.
    threads must be an integer >= 1 (ValueError naming it).
    """
    check_integer("threads", threads, 1)
    starts = list(starts)
    if threads == 1 or len(starts) < 2:
        return [fn(s) for s in starts]
    results, errors = [None] * len(starts), {}
    lock = threading.Lock()
    claimed, stopped = 0, False

    def work():
        nonlocal claimed
        while True:
            with lock:
                if stopped or errors or claimed == len(starts):
                    return
                i, claimed = claimed, claimed + 1
            try:
                results[i] = fn(starts[i])
            except Exception as e:
                with lock:
                    errors[i] = e

    helpers = _submit(work, min(threads, len(starts)) - 1)
    try:
        work()
    finally:
        stopped = True                  # should the calling thread have raised: claim no more
        for h in helpers:
            if not h.cancel():
                h.result()
    if errors:
        raise errors[min(errors)]
    return results


# ---------------------------------------------------------------------------
# kept arrays

_kept = threading.local()          # each thread's kept arrays, by (name, dtype)


def _new_array(name, shape, dtype=np.float64):
    return np.empty(shape, dtype)


def _kept_array(name, shape, dtype=np.float64):
    """_new_array from the calling thread's kept array of this name and
    dtype (a numpy scalar type), made again only when a larger one is asked
    for: a thread that walks band after band allocates once, not once a
    band, whose fresh pages cost more than its arithmetic.  It holds until
    the thread's next call of that name, so hand no caller one."""
    kept, size = vars(_kept), math.prod(shape)
    a = kept.get((name, dtype))
    if a is None or a.size < size:
        a = kept[name, dtype] = np.empty(size, dtype)
    return a[:size].reshape(shape)


def wrap_unit(x):
    """Reduce coordinates mod 1 into [0, 1).

    For finite x, x - floor(x) is at most 1.0, and equals 1.0 only when a
    tiny negative value rounds up onto it (-1e-18 gives 1 - 1e-18 = 1.0);
    that value snaps to 0.0.  Infinities and NaN give NaN.  Accepts scalars
    or arrays; returns the same kind, and never changes its argument.
    """
    a = _wrap_in_place(np.array(x, dtype=np.float64))
    if a.ndim == 0:
        return float(a)
    return a


def _wrap_in_place(a):
    """wrap_unit on a float64 array the caller owns, overwriting it; returns it."""
    a -= np.floor(a)
    a[a >= 1.0] = 0.0
    return a


def _fractional_part(a):
    """a - floor(a), in place, for the step of domain points: the floor goes to
    the calling thread's kept scratch, and wrap_unit's snap of 1.0 has
    nothing to catch, as a >= 0 makes a - floor(a) exact and below 1."""
    a -= np.floor(a, out=_kept_array("floor", a.shape))
    return a


def _step_doubling(pts, out):
    return _fractional_part(np.multiply(pts, 2.0, out=out))


def _step_tent(pts, out):
    # the operations of 1 - |1 - 2x| in the same order, in out
    np.subtract(1.0, np.multiply(pts, 2.0, out=out), out=out)
    return np.subtract(1.0, np.abs(out, out=out), out=out)


def _step_cat(pts, out):
    # the operations of wrap_unit([2x + y, x + y]) in the same order, in out
    x, y = pts[:, 0], pts[:, 1]
    np.multiply(x, 2.0, out=out[:, 0])
    out[:, 0] += y
    np.add(x, y, out=out[:, 1])
    return _fractional_part(out)


_DOUBLING = ((2,),)
_CAT = ((2, 1), (1, 1))


# ---------------------------------------------------------------------------
# point handling

def _as_batch(sys: System, x):
    """Coerce a point argument to an (N, d) float64 batch plus a shape tag."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        if sys.d != 1:
            raise ValueError(f"scalar point given to {sys.d}-d system {sys.sid}")
        return a.reshape(1, 1).copy(), "scalar"
    if a.ndim == 1:
        if sys.d == 1:
            return a.reshape(-1, 1).copy(), "flat"
        if a.shape[0] == sys.d:
            return a.reshape(1, sys.d).copy(), "point"
        raise ValueError(f"length-{a.shape[0]} vector is not a point of {sys.describe()}")
    if a.ndim == 2 and a.shape[1] == sys.d:
        return a.copy(), "batch"
    raise ValueError(f"cannot interpret shape {a.shape} as points of {sys.describe()}")


def _restore(pts: np.ndarray, tag: str):
    if tag == "scalar":
        return float(pts[0, 0])
    if tag == "point":
        return pts[0]
    if tag == "flat":
        return pts[:, 0]
    return pts


def _check_domain(sys: System, pts: np.ndarray):
    # written as "not inside" so that NaN, which compares False, is refused
    if sys.domain == "torus":
        bad = ~((pts >= 0.0) & (pts < 1.0))
    else:
        bad = ~((pts >= sys.lo) & (pts <= sys.hi))
    if np.any(bad):
        i = int(np.argwhere(np.any(np.atleast_2d(bad), axis=-1))[0][0])
        raise DomainError(f"point {pts[i]} outside domain of {sys.describe()}")


def into_domain(sys: System, pts: np.ndarray) -> np.ndarray:
    """Move a float64 array the caller owns onto the domain, overwriting it.

    Torus coordinates wrap into [0, 1) as wrap_unit does; interval points
    clip to [lo, hi].  Returns pts.
    """
    if sys.domain == "torus":
        return _wrap_in_place(pts)
    return np.clip(pts, sys.lo, sys.hi, out=pts)


def iterate(sys: System, x, k: int):
    """Apply the step map k >= 0 times.  Domain is checked before stepping;
    a k that is not an integer raises ValueError naming it."""
    check_integer("k", k, 0)
    pts, tag = _as_batch(sys, x)
    _check_domain(sys, pts)
    orbits = _FloatOrbits(sys, pts)
    for _ in range(k):
        orbits.advance()
    return _restore(orbits.x, tag)


def distance(sys: System, a, b):
    """Metric of the system's domain: flat-torus distance or euclidean."""
    pa, tag_a = _as_batch(sys, a)
    pb, _ = _as_batch(sys, b)
    pa, pb = np.broadcast_arrays(pa, pb)
    diff = np.abs(pa - pb)
    if sys.domain == "torus":
        diff = np.minimum(diff, 1.0 - diff)
    d = np.sqrt(np.sum(diff * diff, axis=1))
    if tag_a in ("scalar", "point") and d.shape[0] == 1:
        return float(d[0])
    return d


def domain_diameter(sys: System) -> float:
    if sys.domain == "torus":
        return math.sqrt(sys.d) / 2.0
    return sys.hi - sys.lo


# ---------------------------------------------------------------------------
# sampled orbit ensembles

class _FloatOrbits:
    """Float64 orbits of an (N, d) batch: every float batch whose Birkhoff
    sums are taken, the logistic ensemble (_FloatEnsemble) included.

    The orbits start from a copy of pts and step in buffers from
    buffer(name, shape, dtype) (_new_array or _kept_array): a 1-d step
    writes over x (its spare is x), and a 2-d one, which reads the old x,
    into its spare, and the two swap.
    """

    def __init__(self, sys, pts, buffer=_new_array):
        self._own(sys, buffer("x", pts.shape, np.float64), buffer)
        self.x[...] = pts

    def _own(self, sys, x, buffer):
        # the orbits step x, which they own from here on
        self.sys, self._buffer, self._phases, self.x = sys, buffer, None, x
        self.spare = x if sys.d == 1 else buffer("spare", x.shape, np.float64)

    def points(self, phase=False) -> np.ndarray:
        """The current (count, d) float64 points, or with phase the (count,)
        float32 phases fl(fl(x_1) fl(2 pi)) of x_1; the orbits write either
        again, so read it before the next step or phases."""
        if phase:
            if self._phases is None:
                self._phases = self._buffer("phases", self.x.shape[:1], np.float32)
            # fl(x_1) by the copy, then one float32 multiply in place: the
            # bits of a float32 multiply of float64 x_1, without its casts
            self._phases[...] = self.x[:, 0]
            self._phases *= _TWO_PI32
            return self._phases
        return self.x

    def advance(self):
        self.x, self.spare = self.sys._step(self.x, self.spare), self.x


def birkhoff_sums(orbits, term, n_values, buffer=_new_array):
    """Yield the Birkhoff sum S_n = sum_{j<n} of the terms at f^j x, at each horizon of n_values.

    `orbits` is any orbit representation (a float batch in `_FloatOrbits`, or
    a fixed-point ensemble), driven only through points() and advance().
    term(orbits) (observables.terms, from time_average and deviations, its
    only callers) gives the (count,) terms at its current points, added one
    by one: float32 ones (the screen of cos1) into a float32 sum, whose
    rounding observables.float32_band bounds, any others (an observable's fn
    on float64 points) into a float64 sum.  n_values must be increasing and
    >= 1, and the orbits advance n_max - 1 times.  A term may be an array
    the orbits write again at the next step, so the sum starts from a copy,
    in buffer("sums", shape, dtype) (see _FloatOrbits); it is then updated
    in place, so read each yielded array before asking for the next.
    """
    acc = None
    k = 0                                         # steps walked
    for n in n_values:
        while k < n:
            if k:
                orbits.advance()
            t = term(orbits)
            k += 1
            if acc is None:
                acc = buffer("sums", t.shape, np.float32 if t.dtype == np.float32 else np.float64)
                acc[...] = t
            else:
                acc += t
        yield acc


class _FloatEnsemble(_FloatOrbits):
    """Float64 orbits of uniform points drawn from counter blocks, each
    piece's points written into the array the orbits step: the logistic
    ensemble.  No horizon budget is derived for it."""

    horizon = None
    doubles_phase = False

    def __init__(self, sys, count, drawn):
        self._own(sys, np.empty((count, sys.d)), _new_array)
        for p, blocks in drawn:
            self.x[p:p + len(blocks)] = domain_points(sys, blocks)


def _fixed_point_horizon(matrix) -> int:
    """The deepest horizon a 128-bit fixed-point ensemble of x -> A x (mod 1) is exact for.

    The largest n with |A^(n-1)|_inf <= 2^(128-53), |.|_inf the largest
    absolute row sum.  A sample stands for a uniform real point x whose top
    128 bits per coordinate are drawn: the state is x - e, 0 <= e_i < 2^-128.
    Integer arithmetic mod 2^128 steps the state exactly, so after j steps
    it is A^j x - A^j e (mod 1), and |A^j e|_inf < |A^j|_inf 2^-128.  While
    that gap stays at most 2^-53, the projected points (the top 53 bits,
    rng.uniform01) are within one unit 2^-53 of those of the true orbit, as
    torus distances.  A horizon n reads the points after 0..n-1 steps.
    Doubling (A = 2) gives 76; cat ((2, 1), (1, 1)), whose row sums of A^53
    and A^54 are 1.66e22 and 4.36e22 against 2^75 = 3.78e22, gives 54.
    """
    cols = list(zip(*matrix))                   # Python ints: no overflow
    power, n = [[int(i == j) for j in range(len(cols))] for i in range(len(cols))], 0
    while max(sum(map(abs, row)) for row in power) <= 2 ** (128 - 53):
        power = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in power]
        n += 1
    return n


def _fraction(word, into, out):
    """out = rng.uniform01 of the uint64 array `word`, by its rule, in place:
    the top 53 bits, truncated, read as a signed word and times 2^-53, a
    fixed-point coordinate as a float64 point in [0, 1).  `into`, uint64
    scratch (word itself if word is), receives the shifted word.  Returns
    out."""
    np.right_shift(word, 11, out=into)
    return np.multiply(into.view(np.int64), 2.0**-53, out=out)


def _phase(top, out):
    """out = the float32 phases of the coordinates whose top 32 bits are the
    uint32 array `top` (a strided view is fine), in one multiply: top read
    as a signed word s in [-2^31, 2^31), times 2 pi 2^-32.  Returns out.

    Let X be the coordinate's float64 point x64 in units of 2^-32, less
    2^32 where its top bit is set, so that 2 pi X 2^-32 lies in [-pi, pi)
    and has the cosine of 2 pi x64.  Then s = X - e with 0 <= e < 2^r:
    r = 0 where the word holds the coordinate's top 32 bits, and r = j mod 8
    <= 7 for the doubling and tent ensembles' word, which holds 32 - r of
    them and r zeros (see _DyadicDoubling; the tent's fold leaves the zeros
    zeros).  Rounding s to float32 and the truncation
    e together stay within 2^7 + 1 units of X, as they are allowed to: where
    |s| < 2^(24 + r), s (a multiple of 2^r) is exact in float32 and
    |fl(s) - X| = e < 2^r <= 2^7; otherwise the float32 spacing at s,
    2^(k - 23) for 2^k <= |s| < 2^(k + 1), is at least 2^(r + 1), so the
    rounding drops the zeros anyway, and |fl(s) - X| < 2^(k - 24) + 2^r <=
    2^(k - 23) <= 2^7 (k <= 30: s = -2^31 is exact).  The phase is
    fl(fl(s) fl(2 pi) 2^-32), at most fl(pi) in size, and rounding 2 pi and
    the product add under pi (2u + u^2), u = 2^-24.  As 2^7 + 1 units of
    2^-32 are a phase of pi u + 2 pi 2^-32, the phase is within
    3 pi u (1 + 3u) + 2 pi 2^-32 of 2 pi x64 (mod 2 pi), the phase term of
    observables.float32_band.  Measured on 2^20 doubling draws whose low 64
    bits are all ones, at every j <= 75, the worst gap is 0.70 of that bound
    at j mod 8 of 6 and 7, against 0.53 at j mod 8 = 0, and the same on the
    tent ensemble of those draws.  The word needs no shift.
    """
    signed = top.view(top.dtype.byteorder + "i4")     # the same bytes, the same order
    return np.multiply(signed, _TWO_PI * 2.0**-32, out=out, dtype=np.float32)


def _window(words, j, word, part):
    """word = the bits j, j + 1, ... of a draw held as rows of unsigned words
    (the top word first, zeros past the last), as many as a word holds; part
    is scratch like word.  Returns word."""
    width = 8 * words.itemsize
    q, r = divmod(j, width)
    if q >= len(words):
        word[:] = 0
        return word
    np.left_shift(words[q], r, out=word)
    if r and q + 1 < len(words):
        np.right_shift(words[q + 1], width - r, out=part)
        word |= part
    return word


class _FixedPointOrbits:
    """Base of the fixed-point ensembles: scratch arrays kept across steps.

    Neither advance() nor points() allocates once its scratch exists:
    points() writes the float64 points (by `_fraction`) into the same array
    at every call, so read it before the next call, and points(phase=True)
    writes the (count,) float32 phases of x_1 (by `_phase`) into an array of
    its own, which the caller may overwrite.  Scratch is made on first use.
    Each representation is built as `(sys, count, drawn)`: it allocates
    its (count,)-sample state once and fills it from `drawn`, an iterable
    of (offset, blocks) pieces whose rows are its samples offset, offset +
    1, ... (rng.pieces, or one piece of a whole draw), so no (count, 4)
    block array need exist beside it.
    """

    def __init__(self, count):
        self.count = count
        self._kept = {}

    def _scratch(self, name, dtype, rows=0):
        """The kept array of this name, made of dtype: (count,), or (rows, count) with rows."""
        a = self._kept.get(name)
        if a is None:
            a = self._kept[name] = np.empty((rows, self.count) if rows else self.count, dtype)
        return a


class _DyadicDoubling(_FixedPointOrbits):
    """Exact 128-bit fixed-point orbits of the doubling map, and with
    `fold` of the tent map.

    A sample stands for a real point x inside the cylinder of its drawn top
    128 bits.  The doubling step is a left shift, so the point after j
    steps, 2^j x (mod 1), is the drawn bits from offset j on: advance() only
    counts j, and points() reads them from a group word, the word of bits
    8 floor(j / 8) on, made once per 8 steps and kept, then shifted left by
    r = j mod 8 to bring bit j to the top.  A float64 point's group word is
    64 bits wide, from two 64-bit words made from the draw on the first
    point read: after the shift it holds 64 - r >= 57 drawn bits, so the
    point's 53 bits (see _fraction) are exact.  A phase's group word is 32
    bits wide, from the draw kept as four 32-bit limbs: after the shift it
    holds 32 - r drawn bits followed by r zeros, which `_phase` shows cost
    the phase nothing its bound does not allow.  Exact binary arithmetic
    keeps the ensemble immune to the float64 orbit collapse of dyadic maps,
    for a budget of `horizon` = 76 (_fixed_point_horizon): float64 points
    read drawn bits while j + 52 <= 127, i.e. j <= 75.  Past that, bits
    past 127 read as zeros, as if shifted in at the bottom, and from j = 128
    on every point is 0: a doubling cos1 ladder at alpha 0.3 would read
    0.939 at n = 200, where the true measure is about 0.

    The tent map T^j x is D^j x where bit j - 1 of x (bit 0 first) is 0,
    and 1 - D^j x, whose bits are D^j x's flipped, where it is 1.  With
    `fold` the group word is XOR-ed with -(bit j - 1) before the shift, so
    the zeros shifted in stay zeros: for the same budget the float64 points
    are the top 53 bits of T^j of every point inside the cylinder (the
    endpoint x0 itself may differ by a unit).  Past the draw (j >= 129) bit
    j - 1 reads 0, like the window's bits.

    Either step doubles the phase 2 pi x mod 2 pi, up to its sign
    (`doubles_phase`): cos 2 pi D x = cos 2 pi T x = cos 4 pi x, so the
    cosine at the next point is 2 cos^2 - 1 of this one's, which the cos1
    screen takes at every other step (observables.terms).
    """

    horizon = _fixed_point_horizon(_DOUBLING)
    doubles_phase = True
    fold = False

    def __init__(self, sys, count, drawn):
        super().__init__(count)
        self.limbs = np.empty((4, count), "<u4")
        for p, blocks in drawn:
            # the "<u4" view holds each 64-bit word's low half first
            halves = blocks[:, :2].astype("<u8", copy=False).view("<u4")
            for limb, half in zip(self.limbs, (1, 0, 3, 2)):
                limb[p:p + len(halves)] = halves[:, half]
        self.j = 0
        self._group_at = {}                       # "phase" | "point" -> offset its group word holds

    def points(self, phase=False) -> np.ndarray:
        """(count, 1) float64 points after j steps, or with phase their
        (count,) float32 phases (by `_phase` of the top 32 bits)."""
        kind = "phase" if phase else "point"
        words = self.limbs if phase else self._wide()
        word = self._scratch(kind + " word", words.dtype)
        group = self._scratch(kind + " group", words.dtype)
        at = self.j - self.j % 8
        if self._group_at.get(kind) != at:
            _window(words, at, group, word)
            self._group_at[kind] = at
        if self.fold:
            group = self._folded(words, group, word)
        if self.j > at:
            group = np.left_shift(group, self.j - at, out=word)
        if phase:
            return _phase(group, self._scratch("phases", np.float32))
        out = self._scratch("points", np.float64, 1)
        _fraction(group, word, out[0])
        return out.T

    def _folded(self, words, group, out):
        """out = group XOR -(bit j - 1 of the draw), or group itself at j = 0
        and past the draw.  Returns it."""
        width = 8 * words.itemsize
        q, s = divmod(self.j - 1, width)
        if not 0 <= q < len(words):
            return group
        flip = self._scratch(f"fold {width}", words.dtype)
        np.left_shift(words[q], s, out=flip)
        signed = flip.view(flip.dtype.str.replace("u", "i"))
        np.right_shift(signed, width - 1, out=signed)   # arithmetic: all ones where the bit is 1
        return np.bitwise_xor(group, flip, out=out)

    def _wide(self):
        """The draw as (hi, lo) uint64 words, made from the limbs on first use."""
        wide = self._kept.get("wide")
        if wide is None:
            wide = np.left_shift(self.limbs[0::2], 32, dtype=np.uint64)
            wide |= self.limbs[1::2]
            self._kept["wide"] = wide
        return wide

    def advance(self):
        self.j += 1


class _DyadicTent(_DyadicDoubling):
    """Exact 128-bit fixed-point orbits of the tent map (see _DyadicDoubling)."""

    fold = True


def _add128(a, b, carry):
    """a += b (mod 2^128) in place, for (hi, lo) pairs of uint64 arrays.

    carry is uint64 scratch: adding a bool carry would cast it on every step.
    """
    (ahi, alo), (bhi, blo) = a, b
    alo += blo
    np.less(alo, blo, out=carry)
    ahi += bhi
    ahi += carry


class _DyadicCat(_FixedPointOrbits):
    """Exact 128-bit fixed-point orbits of the 2-torus map (2x+y, x+y).

    Each coordinate is a (hi, lo) uint64 pair, stepped in place as y += x,
    then x += y (2x + y), mod 2^128, for a budget of `horizon` = 54
    (_fixed_point_horizon): past it the projected points drift from those
    of the drawn real orbit by more than 2^-53.
    """

    horizon = _fixed_point_horizon(_CAT)
    doubles_phase = False

    def __init__(self, sys, count, drawn):
        super().__init__(count)
        state = np.empty((4, count), "<u8")          # rows: x hi, x lo, y hi, y lo
        for p, blocks in drawn:
            state[:, p:p + len(blocks)] = blocks.T
        self.x, self.y = (state[0], state[1]), (state[2], state[3])

    def points(self, phase=False) -> np.ndarray:
        """(count, 2) float64 points from the top words, or with phase the (count,) phases of x."""
        if phase:
            # the word's top half: every other "<u4" of it, a strided view
            return _phase(self.x[0].view("<u4")[1::2], self._scratch("phases", np.float32))
        out, into = self._scratch("points", np.float64, 2), self._scratch("word", np.uint64)
        _fraction(self.x[0], into, out[0])
        _fraction(self.y[0], into, out[1])
        return out.T

    def advance(self):
        carry = self._scratch("carry", np.uint64)
        _add128(self.y, self.x, carry)
        _add128(self.x, self.y, carry)


# ---------------------------------------------------------------------------
# the catalog

@dataclass(frozen=True)
class System:
    """A system: identity, domain, regularity data, step map and ensembles.

    `lip` is the (best known global) Lipschitz constant of one step; the
    expansion base used by dimension bounds is `L = max(lip, 2)`.  `matrix`
    is the integer matrix A of a linear torus map, whose step is
    wrap_unit(A x) (rows of A, as nested tuples), and None for the others.
    `_step(pts, out)` writes the step of an (N, d) batch into out and
    returns it; in 1-d out may be pts, and pts must lie on the domain
    (the torus steps take a - floor(a) with no wrap_unit snap).
    `ensemble(sys, count, drawn)` (see _FixedPointOrbits) is the orbit
    representation of its sampled ensembles, float64 orbits of the step
    map unless the catalog entry's constructor picks another: its `horizon` is the deepest horizon it is faithful for (None
    where no budget is derived), and its `doubles_phase` says whether one
    step doubles the phase of x_1 (mod 2 pi, up to sign), so that the
    cosine of the next point's phase is a closed form of this one's.
    """

    sid: str
    d: int
    domain: str                     # "torus" | "interval"
    lo: float
    hi: float
    lip: float
    srb_kind: str                   # "lebesgue" | "empirical-orbit"
    params: tuple = ()
    matrix: tuple | None = None
    _step: Callable = field(repr=False, compare=False, default=None)
    ensemble: type = field(repr=False, compare=False, default=_FloatEnsemble)

    @property
    def L(self) -> float:
        return max(self.lip, 2.0)

    def describe(self) -> str:
        extra = "".join(f", {k}={v}" for k, v in self.params)
        return f"{self.sid}({self.domain} d={self.d}{extra})"


def _doubling(sid):
    return System(sid, 1, "torus", 0.0, 1.0, 2.0, "lebesgue",
                  matrix=_DOUBLING, _step=_step_doubling, ensemble=_DyadicDoubling)


def _tent(sid):
    return System(sid, 1, "interval", 0.0, 1.0, 2.0, "lebesgue", _step=_step_tent,
                  ensemble=_DyadicTent)


def _cat(sid):
    return System(sid, 2, "torus", 0.0, 1.0, _CAT_EXPANSION, "lebesgue",
                  matrix=_CAT, _step=_step_cat, ensemble=_DyadicCat)


def _logistic(sid, c):
    beta = (1.0 + math.sqrt(1.0 - 4.0 * c)) / 2.0

    def step(pts, out, _c=c, _b=beta):
        # one step can exit [-b, b] only by float rounding; clamp the dust
        np.multiply(pts, pts, out=out)
        out += _c
        return np.clip(out, -_b, _b, out=out)

    return System(sid, 1, "interval", -beta, beta, 2.0 * beta,
                  "empirical-orbit", params=(("c", c),), _step=step)


class Param(NamedTuple):
    """A required real parameter of a catalog entry and its interval rule.

    `ends` gives the interval's brackets, as in errors.check_real.  check()
    returns the value as a float, or raises ParameterError.
    """

    name: str
    lo: float
    hi: float
    ends: str = "[]"

    def check(self, owner: str, value) -> float:
        if value is None:
            raise ParameterError(f"{owner} requires parameter {self.name}", self.name)
        try:
            return check_real(f"{owner} parameter {self.name}", value, self.lo, self.hi, self.ends)
        except ValueError as e:
            raise ParameterError(str(e), self.name) from None


class CatalogEntry(NamedTuple):
    """A catalog system or observable: `build(sid, **params)` or
    `build(oid, sys, **params)` constructs it, and `params` are its rules."""

    build: Callable
    params: tuple = ()


SYSTEMS = {
    "doubling": CatalogEntry(_doubling),
    "tent": CatalogEntry(_tent),
    "cat": CatalogEntry(_cat),
    "logistic": CatalogEntry(_logistic, (Param("c", -2.0, 0.25, "[)"),)),
}

# Float64 orbits of every system: each step multiplies a point's rounding
# error by up to L, spending log2 L of its 53 bits; a horizon n is faithful
# while n log2 L <= FLOAT64_BITS (doubling orbits reach 0 within 53 steps).
FLOAT64_BITS = 45.0


def catalog_entry(table: dict, kind: str, key: str, params: dict):
    """A catalog entry and its checked parameters; ParameterError when the
    key is unknown or a parameter is missing or out of its interval.
    Parameters the entry does not declare are ignored."""
    entry = table.get(key)
    if entry is None:
        raise ParameterError(f"unknown {kind} id {key!r}")
    return entry, {p.name: p.check(key, params.get(p.name)) for p in entry.params}


def get_system(sid: str, **params) -> System:
    """Build a catalog system by id (see SYSTEMS for its parameters)."""
    entry, kw = catalog_entry(SYSTEMS, "system", sid, params)
    return entry.build(sid, **kw)


def check_ensemble_horizon(sys: System, n: int):
    """ValueError when horizon n is past the budget of the system's ensembles."""
    budget = sys.ensemble.horizon
    if budget is not None and n > budget:
        raise ValueError(f"horizon {n} is past n={budget}, the deepest "
                         f"a {sys.sid} ensemble is exact for")


def check_float64_horizon(sys: System, n: int):
    """ValueError when horizon n is past the float64 orbit budget, n log2 L <= 45."""
    bits = math.log2(sys.L)
    if n * bits > FLOAT64_BITS:
        raise ValueError(f"horizon {n} is past n={int(FLOAT64_BITS / bits)}, the deepest "
                         f"float64 orbits of {sys.sid} (L={sys.L:.4g}) are faithful for")


def sample_orbit_ensemble(sys: System, seed: int, start, count: int):
    """Draw samples [start, start+count) of a system's orbit ensemble (System.ensemble).

    A range is read in pieces (rng.pieces), each put into the ensemble's
    state as it comes.  `start` may instead be a non-empty increasing array
    of `count` sample indices, which draws just those samples, reading just
    their counter blocks (rng.raw_blocks) as one piece.  Sample i always
    consumes counter block i of the orbit stream, so any chunking or
    selection of [0, N) yields bit-identical orbits.  Initial conditions
    are uniform over the domain (the natural measure for every catalog
    system except logistic, whose ensembles are only used where a uniform
    seed is the documented behavior).
    """
    if np.ndim(start) == 0:
        drawn = pieces(seed, STREAM_ORBITS, start, count)
    else:
        drawn = [(0, raw_blocks(seed, STREAM_ORBITS, start, count))]
    return sys.ensemble(sys, count, drawn)


def domain_points(sys: System, blocks: np.ndarray) -> np.ndarray:
    """Uniform float64 points on the domain, point i from counter block i.

    The first d words of each block are the point's coordinates; callers
    that need more uniforms per sample take them from the remaining words.
    """
    return sys.lo + (sys.hi - sys.lo) * uniform01(blocks[:, :sys.d])
