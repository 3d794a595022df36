"""Deterministic random-number streams.

All stochastic stages derive independent child streams from one master seed
through ``numpy.random.SeedSequence`` spawn keys, backed by the counter-based
Philox bit generator.  The stream map is fixed:

    (STREAM_SAMPLER,)                 exact-sampler shot draws
    (STREAM_NOISE,)                   bit-flip noise channel
    (STREAM_RECOVERY, iteration)      configuration recovery: one uniform per
                                      shot and spin-orbital, shots in canonical
                                      order, alpha orbitals before beta
    (STREAM_BATCH, iteration, batch)  batch subsampling

Because each (purpose, iteration, batch) tuple owns its own counter-based
stream, results are independent of evaluation order and of how batches are
scheduled across workers.
"""

from __future__ import annotations

import numpy as np

STREAM_SAMPLER = 0
STREAM_NOISE = 1
STREAM_RECOVERY = 2
STREAM_BATCH = 3


def child_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Child generator for stream ``path`` under ``master_seed``."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seq))
