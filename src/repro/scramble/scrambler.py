"""Data scrambling/descrambling.

Real memory controllers XOR data with a keystream derived from a secret
seed and the physical address, so that even highly regular data (all
zeros, for example) looks pseudo-random on the DRAM bus and in the array
[Nair+, ISCA'16].  Attaché relies on this: the Metadata-Header comparison
happens *after* scrambling, which is what makes the 15-bit CID collision
probability for uncompressed lines exactly 2^-15 regardless of data
content (paper, Section IV-B and footnote 3).

Scrambling is an involution (XOR with a fixed keystream), so one class
serves both directions.

The keystream is a pure function of (seed, address, length); the fast
path memoises full-line keystreams per address and XORs via a single
integer operation instead of a per-byte generator.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro import fastpath
from repro.util.bitops import CACHELINE_BYTES
from repro.util.rng import splitmix64


class DataScrambler:
    """XOR-keystream scrambler keyed by (boot seed, physical address).

    The keystream depends on the address, so identical data written to two
    different lines scrambles to two different patterns — the property the
    paper's footnote 3 calls out.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed & ((1 << 64) - 1)
        self._fastpath = fastpath.enabled()
        #: address -> (keystream bytes, keystream as little-endian int).
        #: A plain dict cleared wholesale at capacity: the keystream is a
        #: pure function of the address, so the eviction policy is
        #: invisible to results and LRU bookkeeping would be pure tax.
        #: Same-seed scramblers may share it (fastpath.share_memos).
        self._keystreams: Dict[int, Tuple[bytes, int]] = fastpath.memo(
            "scramble.keystream", self._seed
        )
        self.perf_keystream = fastpath.CacheCounters()

    @property
    def seed(self) -> int:
        """The boot-time scrambler seed."""
        return self._seed

    def keystream(self, address: int, length: int) -> bytes:
        """Generate *length* keystream bytes for a block at *address*."""
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        if self._fastpath and length <= CACHELINE_BYTES:
            return self._cached_keystream(address)[0][:length]
        return self._generate(address, length)

    def _generate(self, address: int, length: int) -> bytes:
        out = bytearray()
        # Each 8-byte keystream chunk mixes the seed, the address and the
        # chunk index through two splitmix64 rounds.
        chunk = 0
        while len(out) < length:
            word = splitmix64(splitmix64(self._seed ^ (address * 0x2545F4914F6CDD1D)) ^ chunk)
            out += word.to_bytes(8, "little")
            chunk += 1
        return bytes(out[:length])

    def _cached_keystream(self, address: int) -> Tuple[bytes, int]:
        cached = self._keystreams.get(address)
        if cached is not None:
            self.perf_keystream.hits += 1
            return cached
        self.perf_keystream.misses += 1
        # Same stream as _generate, with the address-only inner round
        # hoisted out of the chunk loop (it does not depend on `chunk`)
        # and splitmix64 inlined; chunks assemble into one integer so the
        # bytes form materialises in a single to_bytes call.
        inner = splitmix64(self._seed ^ (address * 0x2545F4914F6CDD1D))
        key_int = 0
        shift = 0
        for chunk in range(CACHELINE_BYTES // 8):
            z = ((inner ^ chunk) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
            key_int |= ((z ^ (z >> 31)) & 0xFFFFFFFFFFFFFFFF) << shift
            shift += 64
        entry = (key_int.to_bytes(CACHELINE_BYTES, "little"), key_int)
        if len(self._keystreams) >= fastpath.MEMO_ENTRIES:
            self._keystreams.clear()
        self._keystreams[address] = entry
        return entry

    def keystream_lines(self, addresses):
        """Full-line keystreams for a batch of addresses.

        Returns an (N, 64) uint8 matrix, row *i* bit-identical to
        ``keystream(addresses[i], CACHELINE_BYTES)``.  Dispatches to the
        vector kernels when enabled; otherwise assembles the matrix from
        the scalar (memoised) path.
        """
        import numpy as np

        from repro import kernels

        if kernels.enabled():
            from repro.kernels.scramble import keystream_matrix

            return keystream_matrix(self._seed, addresses)
        return np.frombuffer(
            b"".join(
                self.keystream(int(address), CACHELINE_BYTES)
                for address in np.asarray(addresses).tolist()
            ),
            dtype=np.uint8,
        ).reshape(-1, CACHELINE_BYTES)

    def scramble_lines(self, addresses, matrix):
        """Scramble an (N, 64) uint8 line matrix in one XOR sweep.

        The batch mirror of :meth:`scramble` for full lines; XOR is an
        involution, so it descrambles too.
        """
        return matrix ^ self.keystream_lines(addresses)

    def scramble(self, address: int, data: bytes) -> bytes:
        """Scramble *data* destined for *address*."""
        length = len(data)
        if self._fastpath and length <= CACHELINE_BYTES:
            key_int = self._cached_keystream(address)[1]
            if length != CACHELINE_BYTES:
                key_int &= (1 << (8 * length)) - 1
            return (int.from_bytes(data, "little") ^ key_int).to_bytes(length, "little")
        key = self._generate(address, length)
        return bytes(d ^ k for d, k in zip(data, key))

    # XOR scrambling is self-inverse; an explicit alias keeps call sites
    # readable about the direction of the transform.
    descramble = scramble
