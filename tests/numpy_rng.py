"""The numpy-backed uniform stream, kept as the oracle for ``RngStream``.

``gdlog.distributions.RngStream`` ports SeedSequence, PCG64 and
``Generator.random()`` to the standard library; this is the stream it
replaced, so the two must agree bit for bit on every (seed, index).
"""
from __future__ import annotations

import numpy as np


class NumpyRngStream:
    """Deterministic uniform stream keyed by (base_seed, stream_index)."""

    def __init__(self, base_seed: int, stream_index: int = 0):
        self.base_seed = int(base_seed)
        self.stream_index = int(stream_index)
        seq = np.random.SeedSequence(
            entropy=self.base_seed, spawn_key=(self.stream_index,)
        )
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def uniform(self) -> float:
        """Next float64 in [0, 1)."""
        return float(self._gen.random())
