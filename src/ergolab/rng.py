"""Counter-based random sampling.

Every stochastic routine in the package draws from a Philox counter-based
generator keyed by ``(seed, stream)``.  Randomness is addressed, not
consumed: sample ``i`` of a given stream always reads the same 4-word
counter block regardless of chunk sizes, thread counts, or the order in
which ranges are requested.  That makes every estimate a pure function of
``(seed, stream, sample index)`` and is what the reproducibility guarantees
of the sampling estimators rest on.

Streams are small integers, one per independent purpose (orbit ensembles,
space averages, lemma candidates, ...) so that enlarging one stage's budget
never shifts another stage's draws.
"""

from __future__ import annotations

import numpy as np

from .errors import check_integer

# Stream ids.  Fixed forever; changing one silently changes every seeded
# result downstream.
STREAM_ORBITS = 1         # initial conditions for orbit ensembles
STREAM_SPACE_AVG = 2      # space-average sampling
STREAM_LEMMA_POINTS = 3   # candidate centers for the ball-lemma check
STREAM_LEMMA_BALLS = 4    # ball offsets for the ball-lemma check
STREAM_FLOW = 5           # flow-suite initial states
STREAM_ORBIT_SEED = 6     # start points of an empirical-orbit space average's orbits

WORDS_PER_BLOCK = 4  # one Philox round emits four 64-bit words

_INV_2_53 = float(2.0**-53)
_U11 = np.uint64(11)


def check_seed(seed: int):
    """ValueError unless seed is an integer in [0, 2^64): Philox keys on one
    64-bit word, so any other seed, a float or a bool too, would alias one inside."""
    check_integer("seed", seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2^64), the Philox key word")


def raw_blocks(seed: int, stream: int, start, count: int) -> np.ndarray:
    """Return raw 64-bit words for blocks [start, start+count) of a stream.

    Shape ``(count, 4)`` of uint64.  Block ``k`` is independent of how any
    other block was (or was not) read.  `start` may instead be a non-empty
    increasing array of `count` block indices: exactly those blocks are
    read, in order, from one generator whose counter is set to each index
    in turn through one reused state dict (Philox is counter-addressed, so
    a block read this way equals the same block of a range read), and row
    i is block start[i].  `seed` must pass check_seed; `count`, and a
    scalar `start`, must be integers >= 0 (ValueError naming them).
    """
    check_seed(seed)
    check_integer("count", count, 0)
    indexed = np.ndim(start) > 0
    if indexed:
        idx = np.asarray(start, dtype=np.int64)
        if count < 1 or idx.shape != (count,) or idx[0] < 0 or np.any(np.diff(idx) <= 0):
            raise ValueError("block indices must be a non-empty increasing array of length count")
    else:
        check_integer("start", start, 0)
    bg = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    state = bg.state
    counter = state["state"]["counter"]
    if not indexed:
        counter[0] = start
        bg.state = state
        return bg.random_raw(WORDS_PER_BLOCK * count).reshape(count, WORDS_PER_BLOCK)
    blocks = np.empty((count, WORDS_PER_BLOCK), dtype=np.uint64)
    for row, k in zip(blocks, idx.tolist()):
        # one state set measured 1.3 us against 2.3 us for one advance(300)
        # call (timeit, 2-vCPU Xeon)
        counter[0] = k
        bg.state = state
        row[:] = bg.random_raw(WORDS_PER_BLOCK)
    return blocks


def uniform01(words: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to uniform doubles in [0, 1), in a new array.

    Uses the top 53 bits, identical to numpy's own double generation, so a
    word stream and a ``Generator.random`` stream agree bit for bit.  The
    shifted word has its top bit clear, so it is read as a signed word
    (which converts to float faster than an unsigned one, and exactly:
    it is below 2^53) and multiplied by 2^-53.  systems._fraction is the
    same rule, in place.
    """
    return (words >> _U11).view(np.int64) * _INV_2_53
