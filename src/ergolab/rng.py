"""Counter-based random sampling.

Every stochastic routine in the package draws from a Philox counter-based
generator keyed by ``(seed, stream)``.  Randomness is addressed, not
consumed: sample ``i`` of a given stream always reads the same 4-word
counter block regardless of chunk sizes, thread counts, or the order in
which ranges are requested.  That makes every estimate a pure function of
``(seed, stream, sample index)`` and is what the reproducibility guarantees
of the sampling estimators rest on.

A range is read whole (`raw_blocks`) or in pieces of at most _PIECE
blocks from one generator (`pieces`), the same words either way.

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
_PIECE = 1 << 13     # blocks per piece of a range read (pieces): 256 KiB, cache-sized


def check_seed(seed: int):
    """ValueError unless seed is an integer in [0, 2^64): Philox keys on one
    64-bit word, so any other seed, a float or a bool too, would alias one inside."""
    check_integer("seed", seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2^64), the Philox key word")


def _philox(seed, stream, start, count):
    """The Philox generator of a stream whose counter is at block `start`,
    once seed, count and start pass raw_blocks' checks."""
    check_seed(seed)
    check_integer("count", count, 0)
    check_integer("start", start, 0)
    if int(start) + max(count, 1) > 2**64:   # int: a uint64 start would wrap
        raise ValueError(f"start must leave blocks [start, start + count) below 2^64, "
                         f"the Philox counter word, got start={start}, count={count}")
    return np.random.Philox(counter=np.array([start, 0, 0, 0], dtype=np.uint64),
                            key=np.array([seed, stream], dtype=np.uint64))


def _read(bg, count):
    # random_raw hands out whole blocks, in counter order, call after call
    return bg.random_raw(WORDS_PER_BLOCK * count).reshape(count, WORDS_PER_BLOCK)


def raw_blocks(seed: int, stream: int, start, count: int) -> np.ndarray:
    """Return raw 64-bit words for blocks [start, start+count) of a stream.

    Shape ``(count, 4)`` of uint64.  Block ``k`` is independent of how any
    other block was (or was not) read: it is the one Philox emits at counter
    word k, so a range is read by one generator built at counter start.
    `start` may instead be a non-empty increasing integer array of `count`
    block indices: exactly those blocks are read, in order, from one
    generator whose counter is set to each index in turn through one reused
    state dict, and row i is block start[i].  `seed` must pass check_seed;
    `count` must be an integer >= 0, and a scalar `start` an integer >= 0
    whose blocks lie below 2^64, the counter word (ValueError naming them).
    """
    if np.ndim(start) == 0:
        return _read(_philox(seed, stream, start, count), count)
    check_seed(seed)
    check_integer("count", count, 0)
    key = np.array([seed, stream], dtype=np.uint64)
    idx = np.asarray(start)
    if (idx.dtype.kind not in "iu" or count < 1 or idx.shape != (count,) or idx[0] < 0
            or not np.all(idx[1:] > idx[:-1])):
        raise ValueError("block indices must be a non-empty increasing integer array "
                         "of length count")
    bg = np.random.Philox(key=key)
    state = bg.state
    counter = state["state"]["counter"]
    blocks = np.empty((count, WORDS_PER_BLOCK), dtype=np.uint64)
    for row, k in zip(blocks, idx.tolist()):
        # one state set measured 1.3 us against 2.3 us for one advance(300)
        # call (timeit, 2-vCPU Xeon)
        counter[0] = k
        bg.state = state
        row[:] = bg.random_raw(WORDS_PER_BLOCK)
    return blocks


def pieces(seed: int, stream: int, start: int, count: int):
    """Blocks [start, start+count) of a stream as an iterator of (offset, blocks) pieces.

    `blocks` holds rows offset, offset + 1, ... of the range, at most _PIECE
    of them, and equals raw_blocks(seed, stream, start + offset,
    len(blocks)).  The pieces come in order from successive random_raw
    calls of one generator built at counter start, so a caller can put
    each where it keeps it and the whole (count, 4) range never exists.
    The arguments are raw_blocks' with a scalar start, checked on the call,
    before the first piece; count 0 gives no piece.
    """
    bg = _philox(seed, stream, start, count)
    return ((p, _read(bg, min(_PIECE, count - p))) for p in range(0, count, _PIECE))


def _fraction(word, into, out):
    """out = the uniform doubles in [0, 1) of the uint64 array `word`, in
    place: the top 53 bits, identical to numpy's own double generation, so
    a word stream and a ``Generator.random`` stream agree bit for bit.
    `into`, uint64 scratch shaped like word (word itself if word is
    scratch), receives the word shifted right by 11; its top bit is clear,
    so it is read as a signed word (which converts to float faster than an
    unsigned one, and exactly: it is below 2^53) and multiplied by 2^-53.
    Returns out."""
    np.right_shift(word, 11, out=into)
    return np.multiply(into.view(np.int64), 2.0**-53, out=out)


def uniform01(words: np.ndarray) -> np.ndarray:
    """`_fraction` of raw 64-bit words (any shape or strides), in a new array."""
    return _fraction(words, np.empty(words.shape, np.uint64), np.empty(words.shape))
