"""Deterministic streams built on the Philox counter-based generator.

Each (seed, stream id) pair keys an independent Philox stream (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).  The replica
engine gives each block of simulate.BLOCK replicas one stream, keyed by its
block index, and the cell tree one per tree group (see cells), keyed by its
group index.  Blocks that step together in one numpy pass still draw each
from its own stream, in the order it draws alone.  Streams never depend on
execution order, grouping or worker count, which is what makes parallel
runs byte-for-byte reproducible.

Stream ids partition into disjoint ranges per estimator kind so that, e.g.,
a naive run and a tilted run with the same seed do not share randomness.
"""

import numpy as np

_MASK = (1 << 64) - 1

# Offsets keep the stream ids of different samplers from colliding.  Block
# and group counts are desk scale (<< 2^40), so the ranges cannot overlap.
STREAM_SIM = 0
STREAM_TILT = 1 << 40
STREAM_TWO_PHASE = 2 << 40
STREAM_CELLS = 3 << 40


def replica_stream(seed: int, replica: int) -> np.random.Generator:
    """Generator for one stream id, independent of every other id."""
    key = np.array([seed & _MASK, replica & _MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
