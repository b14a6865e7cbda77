"""Bulk scrambler keystream generation.

Columnar mirror of :meth:`repro.scramble.DataScrambler.keystream` for
full cache lines: the keystream is a pure function of
``(seed, address)``, so a batch of addresses maps to an (N, 64) uint8
keystream matrix with three vectorised splitmix64 sweeps (one for the
address-only inner round, one per-chunk round over an (N, 8) grid).
"""

from __future__ import annotations

import numpy as np

from ..util.bitops import CACHELINE_BYTES
from .rng import vec_splitmix64

__all__ = ["keystream_matrix"]

_ADDRESS_MULT = np.uint64(0x2545F4914F6CDD1D)


def keystream_matrix(seed: int, addresses: np.ndarray) -> np.ndarray:
    """Full-line keystreams for *addresses* as an (N, 64) uint8 matrix.

    Bit-identical to ``DataScrambler(seed).keystream(address, 64)`` per
    row.
    """
    addr = np.ascontiguousarray(addresses, dtype=np.uint64)
    with np.errstate(over="ignore"):
        inner = vec_splitmix64(np.uint64(seed) ^ (addr * _ADDRESS_MULT))
        chunks = np.arange(CACHELINE_BYTES // 8, dtype=np.uint64)
        words = vec_splitmix64(inner[:, None] ^ chunks[None, :])
    # Chunk words assemble little-endian, exactly like the scalar
    # ``key_int |= word << shift`` accumulation.
    return np.ascontiguousarray(words, dtype="<u8").view(np.uint8).reshape(
        -1, CACHELINE_BYTES
    )
