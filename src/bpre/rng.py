"""Deterministic streams built on the Philox counter-based generator.

Each (seed, stream id) pair keys an independent Philox stream (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).  The replica
engine gives each block of simulate.BLOCK replicas one stream, keyed by its
block index, and the cell tree one per tree group (see cells), keyed by its
group index.  Streams never depend on execution order, grouping or worker
count, which is what makes parallel runs byte-for-byte reproducible.

Call j of generation, or tree level, k starts at counter (0, k, j, 0) with
an empty buffer (Stream.at), whatever the stream drew before: call 0 draws
the component uniforms (a tree group's leaf picks at level 0), 1 + 2i law
i's multinomial and 2 + 2i its normals.  A call's row r depends only on the
rows before it, so a stream draws only the lanes or trees a run holds, with
no padding, and a run of fewer is a prefix of a run of more.

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
    """Generator for one stream id, independent of every other id.  Philox
    keys the low 64 bits of seed and stream, so a library call's seeds that
    agree there share a stream; the CLI refuses a seed outside [0, 2^64)."""
    key = np.array([seed & _MASK, replica & _MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class Stream:
    """One stream id whose draw calls start at fixed counters."""

    __slots__ = ("rng", "_state")

    def __init__(self, seed: int, stream: int):
        self.rng = replica_stream(seed, stream)
        state = self.rng.bit_generator.state   # counter 0, empty buffer
        # lists, not arrays: the state setter reads them twice as fast
        self._state = dict(state, buffer=[0] * 4, state={
            "counter": [0] * 4, "key": state["state"]["key"].tolist()})

    def at(self, k: int, j: int) -> np.random.Generator:
        """The generator, set to counter (0, k, j, 0) with an empty buffer
        (about 1 us, reusing one state dict)."""
        self._state["state"]["counter"][1:3] = k, j
        self.rng.bit_generator.state = self._state
        return self.rng
