"""In-memory spans recorded around calls into ergolab's public functions.

The program itself is not changed: `instrument` swaps module attributes for
timing wrappers for the duration of a `with` block and restores them after.
Each span holds a name, start, end, parent span and run id; spans opened by
worker threads whose own stack is empty take the innermost span open on the
thread that activated the tracer as their parent, which is the call that
submitted the work.

A span's self time is its duration minus the part of its interval that its
child spans cover (a union, so overlapping children on two threads are not
counted twice).  Busy times of leaf layers are plain sums of span durations
and may exceed wall time when two threads are busy at once.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int          # 0 for a root span
    name: str
    start: float
    end: float
    count: int           # work the call did (points, blocks, ...), 0 if none
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; one benchmark client uses it at a time."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self.last_args = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack = []

    def activate(self):
        """Make the calling thread the one whose open span adopts worker spans."""
        self._local.stack = self._root_stack

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None, keep_args=False):
        """Return fn recording a span per call; count(args) gives its work."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._root_stack[-1] if tracer._root_stack else 0
            sid = next(tracer._ids)
            stack.append(sid)
            if keep_args:
                tracer.last_args[name] = (args, kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, parent, name, t0, t1,
                                         count(args) if count else 0, tracer.run))
        return traced


def covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Map span id -> duration minus the union of its children's intervals."""
    kids = defaultdict(list)
    for s in spans:
        kids[s.parent].append((s.start, s.end))
    return {s.sid: s.duration - covered(kids[s.sid], s.start, s.end) for s in spans}


def _rows(args):
    return int(args[0].shape[0])


class _TracedEnsemble:
    """Orbit ensemble whose points/advance calls are spans sized by the ensemble."""

    def __init__(self, tracer, ens, size):
        self.points = tracer.wrap("systems.ensemble.points", ens.points,
                                  count=lambda _a: size)
        self.advance = tracer.wrap("systems.ensemble.advance", ens.advance,
                                   count=lambda _a: size)


def _unwrapped(obj, attr):
    """Copy of a system or observable with its traced callable removed."""
    fn = getattr(obj, attr)
    return dataclasses.replace(obj, **{attr: getattr(fn, "__wrapped__", fn)})


def untraced_cover_args(tracer):
    """The last traced build_cover_ladder call, with plain system and observable."""
    args, kwargs = tracer.last_args["dimension.build_cover_ladder"]
    sys, obs = args[0], args[1]
    return (_unwrapped(sys, "_step"), _unwrapped(obs, "fn")) + tuple(args[2:]), dict(kwargs)


@contextmanager
def instrument(tracer):
    """Route ergolab's public calls through tracer spans inside the block."""
    from ergolab import deviation, dimension, flows, rng, runner, systems

    get_system, get_observable = runner.get_system, runner.get_observable

    def traced_system(*a, **k):
        sys = get_system(*a, **k)
        return dataclasses.replace(
            sys, _step=tracer.wrap("systems.step", sys._step, count=_rows))

    def traced_observable(*a, **k):
        obs = get_observable(*a, **k)
        return dataclasses.replace(
            obs, fn=tracer.wrap("observables.fn", obs.fn, count=_rows))

    sample_ensemble = tracer.wrap("systems.sample_orbit_ensemble",
                                  deviation.sample_orbit_ensemble)

    def traced_ensemble(sys, seed, start, count, *a, **k):
        return _TracedEnsemble(tracer, sample_ensemble(sys, seed, start, count, *a, **k),
                               int(count))

    raw_blocks = tracer.wrap("rng.raw_blocks", rng.raw_blocks,
                             count=lambda a: int(a[3]))
    patches = {
        (runner, "get_system"): traced_system,
        (runner, "get_observable"): traced_observable,
        (deviation, "sample_orbit_ensemble"): traced_ensemble,
    }
    for mod in (rng, systems, dimension, flows):
        patches[(mod, "raw_blocks")] = raw_blocks
    for mod, name, label in (
            (runner, "srb_space_average", "systems.srb_space_average"),
            (runner, "build_deviation_ladders", "deviation.build_deviation_ladders"),
            (runner, "fit_rate_function", "deviation.fit_rate_function"),
            (runner, "verify_ball_lemma", "dimension.verify_ball_lemma"),
            (runner, "sample_flow_states", "flows.sample_flow_states"),
            (runner, "integer_part_reduction_check", "flows.integer_part_reduction_check"),
            (runner, "flow_nontypical_inclusion_check", "flows.flow_nontypical_inclusion_check"),
            (runner, "estimate_time1_lipschitz", "flows.estimate_time1_lipschitz"),
            (flows, "flow_time_average", "flows.flow_time_average"),
            (flows, "flow_step", "flows.flow_step")):
        patches[(mod, name)] = tracer.wrap(label, getattr(mod, name))
    patches[(runner, "build_cover_ladder")] = tracer.wrap(
        "dimension.build_cover_ladder", runner.build_cover_ladder, keep_args=True)

    orig = {key: getattr(*key) for key in patches}
    tracer.activate()
    try:
        for (mod, name), fn in patches.items():
            setattr(mod, name, fn)
        yield tracer
    finally:
        for (mod, name), fn in orig.items():
            setattr(mod, name, fn)
