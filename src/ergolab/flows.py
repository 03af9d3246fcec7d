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
walks all its states at once, segment index by segment index, doing for
each state exactly the arithmetic of the one-state walk, so batched
results equal the one-state results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .observables import _TWO_PI, Observable
from .rng import STREAM_FLOW, raw_blocks, uniform01
from .systems import System, _as_batch, _check_domain, distance, domain_points, into_domain

_POINT_CHUNK = 1 << 16            # quadrature nodes evaluated per observable call
_OFFSET_SCALE = 1e-6              # largest base offset of a Lipschitz pair


@dataclass(frozen=True)
class Roof:
    kind: str
    fn: Callable                  # (N, d) -> (N,) positive
    rho_min: float
    rho_max: float
    params: tuple = ()


def constant_roof(value: float = 1.0) -> Roof:
    if value <= 0.0:
        raise ValueError("roof must be positive")
    return Roof("constant", lambda p, _v=value: np.full(p.shape[0], _v),
                value, value, (("value", float(value)),))


def cosine_roof(a: float) -> Roof:
    """1 + a cos(2 pi x1); needs |a| < 1 to stay positive."""
    if not abs(a) < 1.0:
        raise ValueError("cosine roof needs |a| < 1 to stay positive")
    return Roof("cosine", lambda p, _a=a: 1.0 + _a * np.cos(_TWO_PI * p[:, 0]),
                1.0 - abs(a), 1.0 + abs(a), (("a", float(a)),))


# roof kinds by id, each built from its one parameter (ValueError out of range)
ROOFS = {"constant": constant_roof, "cosine": cosine_roof}


@dataclass(frozen=True)
class SuspensionFlow:
    base: System
    roof: Roof


@dataclass(frozen=True)
class FlowState:
    """A point of the suspension space: base point x, fiber height s.

    A batch of N states holds x as an (N, d) array and s as an (N,) array.
    """

    x: np.ndarray
    s: float | np.ndarray


@dataclass(frozen=True)
class FlowObservable:
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


def _segments(flow: SuspensionFlow, pts: np.ndarray, s: np.ndarray, horizon):
    """Walk states through their fiber segments, for per-state horizons.

    pts (N, d) and s (N,) are advanced in place.  State i stops once its
    horizon ends strictly inside a fiber, or after its guard of
    int(horizon_i / rho_min) + 2 segments.  Yields, per segment index, the
    live rows with their base points, starting heights and the length of
    fiber each travels.
    """
    remaining = np.broadcast_to(horizon, s.shape).astype(np.float64)
    guard = (remaining / flow.roof.rho_min).astype(np.int64) + 2
    live = np.arange(s.shape[0])
    for j in range(int(guard.max(initial=0))):
        live = live[guard[live] > j]
        if live.size == 0:
            return
        x, s0, rem = pts[live], s[live], remaining[live]
        room = flow.roof.fn(x) - s0
        crossing = room <= rem
        seg = np.where(crossing, room, rem)
        yield live, x, s0, seg
        remaining[live] = rem - seg
        s[live] = np.where(crossing, 0.0, s0 + rem)
        live = live[crossing]
        pts[live] = flow.base._step(x[crossing])


def _time_averages(flow, fobs, pts, s, T, step):
    """Flow averages of N states: per-segment midpoint sums, grouped by node count.

    A segment of length seg gets k = max(1, ceil(seg / step)) nodes; rows
    sharing k are summed as (rows, k) blocks of about _POINT_CHUNK nodes,
    whose row sums equal the one-row sums bit for bit.
    """
    total = np.zeros(s.shape[0])
    for rows, x, s0, seg in _segments(flow, pts, s, T):
        k = np.maximum(np.ceil(seg / step), 1.0).astype(np.int64)
        h = seg / k
        area = np.empty(rows.shape[0])
        for kk in set(k.tolist()):
            nodes = np.arange(kk, dtype=np.float64) + 0.5
            group = np.flatnonzero(k == kk)
            per_chunk = max(1, _POINT_CHUNK // kk)
            for c in range(0, group.size, per_chunk):
                g = group[c:c + per_chunk]
                offs = s0[g, None] + nodes * h[g, None]
                vals = fobs.fn(np.repeat(x[g], kk, axis=0), offs.ravel())
                area[g] = h[g] * np.sum(np.reshape(vals, (-1, kk)), axis=1)
        total[rows] += area
    return total / T


def flow_step(flow: SuspensionFlow, state: FlowState, t) -> FlowState:
    """Advance a state, or a batch, by time t >= 0.  Hitting the roof exactly crosses."""
    t = _times(t)
    if np.any(t < 0.0):
        raise ValueError("flow time must be >= 0")
    pts, s = _checked_states(flow, state)
    for _ in _segments(flow, pts, s, t):
        pass
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
    if step <= 0.0:
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

@dataclass(frozen=True)
class IntegerPartCheck:
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
    if np.any(T < 2.0):
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


@dataclass(frozen=True)
class InclusionCheck:
    T: float | np.ndarray
    alpha: float
    dev_flow: float | np.ndarray
    dev_map: float | np.ndarray | None   # batch: NaN where vacuous
    vacuous: bool | np.ndarray
    ok: bool | np.ndarray


def flow_nontypical_inclusion_check(flow: SuspensionFlow, fobs: FlowObservable,
                                    phibar: float, alpha: float,
                                    state: FlowState, T,
                                    quadrature_step: float | None = None) -> InclusionCheck:
    """Flow deviation >= alpha at T must force time-1-map deviation >= alpha/2.

    The time-1 map's Birkhoff average of the fiber-integrated observable
    over floor(T) steps equals the flow average at horizon floor(T), which
    is how the map-side deviation is evaluated.  States whose flow average
    does not deviate make the implication vacuous (ok by default); their
    dev_map is None for one state and NaN in a batch.
    """
    if alpha <= 0.0:
        raise ValueError("need alpha > 0")
    T = _times(T)
    if np.any(T < 4.0 * fobs.sup_abs / alpha):
        raise ValueError(f"need T >= 4 sup|Phi| / alpha = {4.0 * fobs.sup_abs / alpha}")
    pts, s = _checked_states(flow, state)
    T = np.broadcast_to(T, s.shape).copy()
    dev_flow = np.abs(flow_time_average(flow, fobs, FlowState(pts, s), T,
                                        quadrature_step) - phibar)
    vacuous = dev_flow < alpha
    dev_map = np.full(s.shape, np.nan)
    hit = ~vacuous
    if np.any(hit):
        dev_map[hit] = np.abs(flow_time_average(flow, fobs, FlowState(pts[hit], s[hit]),
                                                np.floor(T[hit]), quadrature_step) - phibar)
    ok = vacuous | (dev_map >= alpha / 2.0 - 1e-9)
    if not _is_batch(state) and vacuous[0]:
        return InclusionCheck(float(T[0]), alpha, float(dev_flow[0]), None, True, True)
    return _check_result(InclusionCheck, state, T=T, alpha=alpha, dev_flow=dev_flow,
                         dev_map=dev_map, vacuous=vacuous, ok=ok)


# ---------------------------------------------------------------------------
# sampling helpers

def _sample_flow_arrays(flow: SuspensionFlow, seed: int, start: int, count: int):
    """(count, d) base points, (count,) fiber heights and (count,) extra uniforms."""
    sys = flow.base
    blocks = raw_blocks(seed, STREAM_FLOW, start, count)
    pts = domain_points(sys, blocks)
    u_s = uniform01(blocks[:, sys.d])
    heights = flow.roof.fn(pts) * u_s * (1.0 - 1e-12)
    return pts, heights, uniform01(blocks[:, 3])


def sample_flow_states(flow: SuspensionFlow, seed: int, start: int, count: int):
    """Draw flow states (uniform base point, uniform admissible fiber height).

    Returns (states, extra) where extra is one more uniform per state (the
    last word of its counter block) for callers that need a per-state
    parameter, e.g. a randomized horizon.
    """
    pts, heights, extra = _sample_flow_arrays(flow, seed, start, count)
    states = [FlowState(pts[i].copy(), float(heights[i])) for i in range(count)]
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
    if pair_count < 1:
        raise ValueError("need pair_count >= 1")
    sys = flow.base
    x1, s1, extra = _sample_flow_arrays(flow, seed, 0, pair_count)
    # perturb the base point; fold the extra uniform into the direction
    x2 = into_domain(sys, x1 + (_OFFSET_SCALE * (2.0 * extra - 1.0))[:, None])
    s2 = np.minimum(s1, flow.roof.fn(x2) * (1.0 - 1e-12))
    d0 = _suspension_distances(sys, x1, s1, x2, s2)
    moved = d0 != 0.0
    f1 = flow_step(flow, FlowState(x1[moved], s1[moved]), 1.0)
    f2 = flow_step(flow, FlowState(x2[moved], s2[moved]), 1.0)
    d1 = _suspension_distances(sys, f1.x, f1.s, f2.x, f2.s)
    return float(np.max(d1 / d0[moved], initial=0.0))
