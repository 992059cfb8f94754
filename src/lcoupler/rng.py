"""Deterministic random-number streams.

Every stochastic routine in the package draws from an ``RngHandle`` stream
derived from one root seed (the CLI's ``--seed``) and a protocol label, so a
whole run is reproducible bit-for-bit from ``(config, seed)`` alone.
Streams are backed by the counter-based Philox generator; deriving a stream
never consumes state from its parent.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


def _label_key(label: str | int) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label)
    digest = hashlib.sha256(label.encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class RngHandle:
    """A seeded position in a tree of independent random streams."""

    seed: int
    path: tuple[int, ...] = ()

    def stream(self, *labels: str | int) -> "RngHandle":
        """Child handle for a named protocol or sub-task."""
        return RngHandle(self.seed, self.path + tuple(_label_key(x) for x in labels))

    def generator(self) -> np.random.Generator:
        """Fresh generator at this position; repeated calls are identical."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))
