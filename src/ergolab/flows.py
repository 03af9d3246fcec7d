"""Suspension flows over the catalog maps.

A suspension flow moves a state (x, s) upward in the fiber coordinate s at
unit speed under a positive roof function rho; reaching the roof applies
the base map and resets s to 0.  Flow averages are time integrals along
trajectories, evaluated segment by segment with composite-midpoint
quadrature inside each fiber crossing (exact for observables constant
along the fiber, since the integrand is then piecewise constant).

The module also provides the two bridge checks between flow averages and
base-map averages:

  * integer-part reduction: |avg_T - avg_floor(T)| is controlled by
    2 sup|Phi| (T - floor(T)) / T;
  * nontypical inclusion: a state whose flow average deviates by alpha at
    horizon T (with T >= 4 sup|Phi| / alpha) has time-1-map deviation at
    least alpha/2 at horizon floor(T).

Every entry point takes one state or a batch of N states (x of shape
(N, d), s of shape (N,)), with horizons scalar or one per state.  A batch
is walked as (segment, state) arrays, one block of segment indices of the
states still live at a time, each block holding at most _POINT_CHUNK
pairs: the roof is evaluated once per block, and remaining times and
liveness are accumulations down the segment axis.  Each state still gets
exactly the arithmetic of the one-state walk, so batched results equal
the one-state results bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, check_integer, check_real
from .observables import _TWO_PI, Observable
from .rng import STREAM_FLOW, raw_blocks, uniform01
from .systems import (_POINT_CHUNK, System, _as_batch, _check_domain, distance, domain_points,
                      into_domain)

_OFFSET_SCALE = 1e-6              # largest base offset of a Lipschitz pair
INTEGER_PART_MIN_T = 2.0          # least horizon of the integer-part reduction


class Roof(NamedTuple):
    kind: str
    fn: Callable                  # (N, d) -> (N,) positive
    rho_min: float
    rho_max: float
    params: tuple = ()


def constant_roof(value: float = 1.0) -> Roof:
    if not 0.0 < value < math.inf:
        raise ValueError("roof must be positive and finite")
    return Roof("constant", lambda p, _v=value: np.full(p.shape[0], _v),
                value, value, (("value", float(value)),))


def cosine_roof(a: float) -> Roof:
    """1 + a cos(2 pi x1); needs |a| < 1 to stay positive."""
    check_real("cosine roof a", a, -1.0, 1.0, "()")
    return Roof("cosine", lambda p, _a=a: 1.0 + _a * np.cos(_TWO_PI * p[:, 0]),
                1.0 - abs(a), 1.0 + abs(a), (("a", float(a)),))


# roof kinds by id, each built from its one parameter (ValueError out of range)
ROOFS = {"constant": constant_roof, "cosine": cosine_roof}


class SuspensionFlow(NamedTuple):
    base: System
    roof: Roof


class FlowState(NamedTuple):
    """A point of the suspension space: base point x, fiber height s.

    A batch of N states holds x as an (N, d) array and s as an (N,) array.
    """

    x: np.ndarray
    s: float | np.ndarray


class FlowObservable(NamedTuple):
    oid: str
    fn: Callable                  # (x: (N,d), s: (N,)) -> (N,)
    sup_abs: float


def fiber_constant(obs: Observable) -> FlowObservable:
    """Lift a base observable to the flow, constant along each fiber."""
    return FlowObservable(obs.oid, lambda x, s, _f=obs.fn: _f(x), obs.sup_abs)


def _is_batch(state: FlowState) -> bool:
    return np.ndim(state.s) == 1


def _checked_states(flow: SuspensionFlow, state: FlowState):
    """(N, d) base points and (N,) heights of a state or batch, checked row by row."""
    s = np.array(state.s, dtype=np.float64, ndmin=1)
    pts, _ = _as_batch(flow.base, state.x)
    if s.ndim != 1 or pts.shape[0] != s.shape[0]:
        raise ValueError(f"{pts.shape[0]} base points given with {s.size} fiber heights")
    _check_domain(flow.base, pts)
    room = flow.roof.fn(pts)
    bad = ~((s >= 0.0) & (s < room))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DomainError(f"fiber height {s[i]} outside [0, {room[i]})")
    return pts, s


def _times(t) -> np.ndarray:
    a = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("flow times must be finite")
    return a


def _walk(flow: SuspensionFlow, pts: np.ndarray, s: np.ndarray, horizon, visit=None):
    """Walk states through their fiber segments, a block of segment indices at a time.

    pts (N, d) and s (N,) are advanced in place.  State i stops once its
    horizon ends strictly inside a fiber, or after its guard of
    int(horizon_i / rho_min) + 2 segments.  A block covers segment indices
    [j0, j0 + B) of the n states still live, with B * n <= _POINT_CHUNK
    unless B = 1, so the working set is bounded whatever horizon / rho_min
    is.  Only states that cross the roof at a block's last segment carry
    forward to the next.  A state at height s with time r left crosses the
    roof at least m = floor((r + s) / rho_max) times (the first crossing
    takes at most rho_max - s, each later one at most rho_max), so it walks
    at least m + 1 segments, and under a constant roof exactly that many up
    to rounding.  B is at most m + 1 for the largest r + s, so a roof far
    above rho_min costs a few more blocks instead of stepping states far
    past their horizons.  visit, if given, gets each block's live pairs (see
    _walk_block); it is a callback, not a generator's consumer, so that no
    block's arrays are alive while the next block is built.
    """
    remaining = np.broadcast_to(horizon, s.shape).astype(np.float64)
    guard = (remaining / flow.roof.rho_min).astype(np.int64) + 2
    rows = np.argsort(-guard, kind="stable")    # guards non-increasing along rows
    j0 = 0
    while rows.size:
        g = guard[rows]
        B = min(max(1, _POINT_CHUNK // rows.size), int(g[0]) - j0,
                int((remaining[rows] + s[rows]).max() / flow.roof.rho_max) + 1)
        cont = _walk_block(flow, pts, s, remaining, rows,
                           np.arange(j0, j0 + B)[:, None] < g, visit)
        j0 += B
        rows = rows[cont & (g > j0)]


def _walk_block(flow, pts, s, remaining, rows, cap, visit):
    """One block of the walk as (segment, state) arrays of shape (B, n).

    cap[b, i] says segment b is within state rows[i]'s guard.  Base points
    are stepped B times and the roof is evaluated once; rem_b = rem_{b-1} -
    room_{b-1} is one subtract.accumulate down the segment axis, or on a
    wide block one subtract per segment.  A pair is
    live while every earlier segment of its state crossed (room <= rem) and
    cap holds.  Calls visit(rows, live, x, s0, seg) with the (B, n) live
    mask and, for the live pairs in row-major order, base points, starting
    heights and the length of fiber each travels.  Moves each state to the
    end of its last live segment and returns whether it crossed the roof there.
    """
    B, n = cap.shape
    d = pts.shape[1]
    # rows are sorted by guard, so those past it at segment b are a suffix:
    # they are not stepped and keep x = 0, which no live pair reads
    xs = np.zeros((B, n, d))
    xs[0] = pts[rows]
    for b, m in enumerate(cap[1:].sum(axis=1).tolist(), 1):
        xs[b, :m] = flow.base._step(xs[b - 1, :m])
    room = flow.roof.fn(xs.reshape(-1, d)).reshape(B, n)
    room[0] -= s[rows]
    rem = np.empty((B, n))
    rem[0] = remaining[rows]
    if n * n >= _POINT_CHUNK:
        # a wide block (n >= 256, so B <= n): a subtract per segment costs
        # about 1.5 us plus 1.4 ns a pair, accumulate down the segment axis
        # 4.5-9 ns a pair, so rows win from a few hundred states on; both
        # subtract in the same order, so they give the same bits
        for b in range(1, B):
            np.subtract(rem[b - 1], room[b - 1], out=rem[b])
    else:
        rem[1:] = room[:-1]
        rem = np.subtract.accumulate(rem, axis=0)
    crossing = room <= rem
    # a state's crossings run True..True False..False: after a miss rem < 0,
    # and rem only falls, below every (positive) room; so each crossing is
    # already the AND of those before it, and a pair is live iff its state's
    # previous segment crossed and cap holds (cap is monotone too)
    live = cap
    live[1:] &= crossing[:-1]
    # each state's last live pair, as a flat index into the (B, n) arrays
    end = (live.sum(axis=0) - 1) * n + np.arange(n)
    cont = crossing.ravel()[end]
    x = xs.reshape(-1, d)[end]
    x[cont] = flow.base._step(x[cont])
    s_first, rem_end = s[rows], rem.ravel()[end]
    pts[rows] = x
    s[rows] = np.where(cont, 0.0, np.where(end < n, s_first, 0.0) + rem_end)
    remaining[rows] = rem_end - room.ravel()[end]
    if visit is not None:
        seg = np.where(crossing, room, rem)[live]
        del room, rem, crossing       # only the live pairs stay through the quadrature
        xs = xs[live]
        # the first n live pairs are segment 0, the only one starting above s = 0
        s0 = np.zeros(seg.shape[0])
        s0[:n] = s_first
        visit(rows, live, xs, s0, seg)
    return cont


def _time_averages(flow, fobs, pts, s, T, step):
    """Flow averages of N states: per-segment midpoint sums, grouped by node count.

    A segment of length seg gets k = max(1, ceil(seg / step)) nodes; the
    live pairs of a block sharing k are summed as (pairs, k) blocks of about
    _POINT_CHUNK nodes, whose row sums equal the one-pair sums bit for bit.
    Each state then adds its segment areas in segment order.
    """
    total = np.zeros(s.shape[0])

    def add_block(rows, live, x, s0, seg):
        k = np.maximum(np.ceil(seg / step), 1.0).astype(np.int64)
        h = seg / k
        area = np.empty(seg.shape[0])
        for kk in set(k.tolist()):
            nodes = np.arange(kk, dtype=np.float64) + 0.5
            group = np.flatnonzero(k == kk)
            per_chunk = max(1, _POINT_CHUNK // kk)
            for c in range(0, group.size, per_chunk):
                g = group[c:c + per_chunk]
                # offsets built node-major, so numpy's inner loops run over pairs, not nodes
                offs = nodes[:, None] * h[g]
                offs += s0[g]
                vals = fobs.fn(np.repeat(x[g], kk, axis=0), offs.T.ravel())
                area[g] = h[g] * np.sum(np.reshape(vals, (-1, kk)), axis=1)
        # accumulate adds down the segment axis in order; dead pairs add +0.0
        areas = np.zeros((live.shape[0] + 1, rows.size))
        areas[0] = total[rows]
        areas[1:][live] = area
        total[rows] = np.add.accumulate(areas, axis=0)[-1]

    _walk(flow, pts, s, T, add_block)
    return total / T


def flow_step(flow: SuspensionFlow, state: FlowState, t) -> FlowState:
    """Advance a state, or a batch, by time t >= 0.  Hitting the roof exactly crosses."""
    t = _times(t)
    if np.any(t < 0.0):
        raise ValueError("flow time must be >= 0")
    pts, s = _checked_states(flow, state)
    _walk(flow, pts, s, t)
    if _is_batch(state):
        return FlowState(pts, s)
    return FlowState(pts[0].copy(), float(s[0]))


def flow_time_average(flow: SuspensionFlow, fobs: FlowObservable,
                      state: FlowState, T,
                      quadrature_step: float | None = None):
    """(1/T) * integral of the observable along the trajectory from state.

    Composite midpoint quadrature inside each fiber segment; segment
    boundaries are hit exactly, so fiber-constant observables integrate
    exactly regardless of the step.  A batch returns an (N,) array.
    """
    T = _times(T)
    if np.any(T <= 0.0):
        raise ValueError("need T > 0")
    step = flow.roof.rho_min / 8.0 if quadrature_step is None else float(quadrature_step)
    if not step > 0.0:
        raise ValueError("need quadrature_step > 0")
    pts, s = _checked_states(flow, state)
    avg = _time_averages(flow, fobs, pts, s, T, step)
    return avg if _is_batch(state) else float(avg[0])


def _check_result(cls, state: FlowState, **fields):
    """A check over N rows: array fields for a batch, plain scalars for one state."""
    if _is_batch(state):
        return cls(**fields)
    return cls(**{k: np.asarray(v).reshape(-1)[0].item() for k, v in fields.items()})


# ---------------------------------------------------------------------------
# bridge checks

class IntegerPartCheck(NamedTuple):
    T: float | np.ndarray
    lhs: float | np.ndarray
    bound: float | np.ndarray
    ok: bool | np.ndarray
    headline_constant: float | np.ndarray  # sup|Phi| / floor(T): reported, not asserted
    headline_ok: bool | np.ndarray


def integer_part_reduction_check(flow: SuspensionFlow, fobs: FlowObservable,
                                 state: FlowState, T,
                                 quadrature_step: float | None = None) -> IntegerPartCheck:
    """Compare the flow average at T against the one at floor(T).

    The asserted control is |avg_T - avg_floor(T)| <= 2 sup|Phi| (T-floor(T))/T
    (plus a 1e-12 rounding allowance).  The tighter summary constant
    sup|Phi|/floor(T) is reported alongside for reference.  A batch of
    states (T scalar or per state) gives array fields.
    """
    T = _times(T)
    if np.any(T < INTEGER_PART_MIN_T):
        raise ValueError("need T >= 2 so that floor(T) >= 2 stays meaningful")
    pts, s = _checked_states(flow, state)
    T = np.broadcast_to(T, s.shape)
    nT = np.floor(T)
    # both horizons in one walk: rows [0, N) run to T, rows [N, 2N) to floor(T)
    n = s.shape[0]
    both = flow_time_average(flow, fobs, FlowState(np.concatenate([pts, pts]),
                                                   np.concatenate([s, s])),
                             np.concatenate([T, nT]), quadrature_step)
    lhs = np.abs(both[:n] - both[n:])
    bound = 2.0 * fobs.sup_abs * (T - nT) / T + 1e-12
    headline = fobs.sup_abs / nT
    return _check_result(IntegerPartCheck, state, T=T.copy(), lhs=lhs, bound=bound,
                         ok=lhs <= bound, headline_constant=headline,
                         headline_ok=lhs <= headline + 1e-12)


class InclusionCheck(NamedTuple):
    T: float | np.ndarray
    alpha: float
    dev_flow: float | np.ndarray
    dev_map: float | np.ndarray | None   # batch: NaN where vacuous
    vacuous: bool | np.ndarray
    ok: bool | np.ndarray


def inclusion_min_T(fobs: FlowObservable, alpha: float) -> float:
    """4 sup|Phi| / alpha, the least horizon of the nontypical inclusion."""
    return 4.0 * fobs.sup_abs / alpha


def flow_nontypical_inclusion_check(flow: SuspensionFlow, fobs: FlowObservable,
                                    phibar: float, alpha: float,
                                    state: FlowState, T,
                                    quadrature_step: float | None = None) -> InclusionCheck:
    """Flow deviation >= alpha at T must force time-1-map deviation >= alpha/2.

    The time-1 map's Birkhoff average of the fiber-integrated observable
    over floor(T) steps equals the flow average at horizon floor(T), which
    is how the map-side deviation is evaluated.  States whose flow average
    does not deviate make the implication vacuous (ok by default); their
    dev_map is None for one state and NaN in a batch.  At an integer T the
    two horizons are one: dev_map is dev_flow, without a second walk (a
    state's average does not depend on the batch it is walked in).
    """
    check_real("alpha", alpha, 0.0, ends="(]")
    check_real("phibar", phibar, ends="()")
    T = _times(T)
    if np.any(T < inclusion_min_T(fobs, alpha)):
        raise ValueError(f"need T >= 4 sup|Phi| / alpha = {inclusion_min_T(fobs, alpha)}")
    pts, s = _checked_states(flow, state)
    T = np.broadcast_to(T, s.shape).copy()
    dev_flow = np.abs(flow_time_average(flow, fobs, FlowState(pts, s), T,
                                        quadrature_step) - phibar)
    vacuous = dev_flow < alpha
    dev_map = np.full(s.shape, np.nan)
    nT = np.floor(T)
    whole = ~vacuous & (nT == T)
    dev_map[whole] = dev_flow[whole]
    walk = ~vacuous & (nT != T)
    if np.any(walk):
        dev_map[walk] = np.abs(flow_time_average(flow, fobs, FlowState(pts[walk], s[walk]),
                                                 nT[walk], quadrature_step) - phibar)
    ok = vacuous | (dev_map >= alpha / 2.0 - 1e-9)
    if not _is_batch(state) and vacuous[0]:
        return InclusionCheck(float(T[0]), alpha, float(dev_flow[0]), None, True, True)
    return _check_result(InclusionCheck, state, T=T, alpha=alpha, dev_flow=dev_flow,
                         dev_map=dev_map, vacuous=vacuous, ok=ok)


# ---------------------------------------------------------------------------
# sampling helpers

def sample_flow_batch(flow: SuspensionFlow, seed: int, start: int, count: int):
    """Draw a batch of flow states (uniform base point, uniform admissible fiber height).

    Returns (states, extra): states one FlowState holding (count, d) base
    points and (count,) heights, and extra one more uniform per state (the
    last word of its counter block) for callers that need a per-state
    parameter, e.g. a randomized horizon.
    """
    sys = flow.base
    blocks = raw_blocks(seed, STREAM_FLOW, start, count)
    pts = domain_points(sys, blocks)
    heights = flow.roof.fn(pts) * uniform01(blocks[:, sys.d]) * (1.0 - 1e-12)
    return FlowState(pts, heights), uniform01(blocks[:, 3])


def sample_flow_states(flow: SuspensionFlow, seed: int, start: int, count: int):
    """sample_flow_batch as a list of single FlowStates: returns (states, extra)."""
    batch, extra = sample_flow_batch(flow, seed, start, count)
    states = [FlowState(batch.x[i].copy(), float(batch.s[i])) for i in range(count)]
    return states, extra


def _suspension_distances(sys: System, xa, sa, xb, sb) -> np.ndarray:
    """Row-wise sqrt(base distance^2 + fiber gap^2), each pair by math.hypot."""
    base = distance(sys, xa, xb).tolist()
    return np.array([math.hypot(b, g) for b, g in zip(base, (sa - sb).tolist())])


def estimate_time1_lipschitz(flow: SuspensionFlow, pair_count: int, seed: int) -> float:
    """Empirical Lipschitz constant of the time-1 map on the suspension space.

    Distance is sqrt(base distance^2 + fiber gap^2).  Pairs are a sampled
    state and a perturbation of its base point by at most _OFFSET_SCALE.
    """
    check_integer("pair_count", pair_count, 1)
    sys = flow.base
    batch, extra = sample_flow_batch(flow, seed, 0, pair_count)
    x1, s1 = batch.x, batch.s
    # perturb the base point; fold the extra uniform into the direction
    x2 = into_domain(sys, x1 + (_OFFSET_SCALE * (2.0 * extra - 1.0))[:, None])
    s2 = np.minimum(s1, flow.roof.fn(x2) * (1.0 - 1e-12))
    d0 = _suspension_distances(sys, x1, s1, x2, s2)
    moved = d0 != 0.0
    # both members of every pair in one walk: rows [0, n) the states, [n, 2n) the partners
    n = int(np.count_nonzero(moved))
    f = flow_step(flow, FlowState(np.concatenate([x1[moved], x2[moved]]),
                                  np.concatenate([s1[moved], s2[moved]])), 1.0)
    d1 = _suspension_distances(sys, f.x[:n], f.s[:n], f.x[n:], f.s[n:])
    return float(np.max(d1 / d0[moved], initial=0.0))
