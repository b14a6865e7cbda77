"""The Replacement Area (RA) — spill storage for XID-displaced bits.

Every line in the memory system owns one bit in the RA, direct-mapped
(Section IV-A-7).  The RA occupies 1/512 of memory capacity (one bit per
64-byte line), is invisible to the OS, and is touched only on CID
collisions — 2^-cid_bits of uncompressed accesses.

The class stores the spilled bits functionally and computes the memory
address of the RA block holding a given line's bit, so the controller
can issue real DRAM requests for RA traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.util.bitops import CACHELINE_BYTES

#: Each RA block (64 B = 512 bits) covers 512 data lines.
LINES_PER_RA_BLOCK = 8 * CACHELINE_BYTES


@dataclass
class ReplacementAreaStats:
    reads: int = 0
    writes: int = 0


class ReplacementArea:
    """Direct-mapped 1-bit-per-line spill store."""

    def __init__(self, base_address: int, memory_bytes: int) -> None:
        if base_address % CACHELINE_BYTES != 0:
            raise ValueError("RA base must be line-aligned")
        if memory_bytes <= 0:
            raise ValueError("memory size must be positive")
        self._base = base_address
        self._lines = memory_bytes // CACHELINE_BYTES
        self._bits: Dict[int, int] = {}
        self.stats = ReplacementAreaStats()

    @property
    def capacity_bytes(self) -> int:
        """RA footprint: one bit per data line (0.2 % of memory)."""
        return self._lines // 8

    def block_address(self, line_address: int) -> int:
        """Byte address of the RA block holding this line's spill bit."""
        self._check_line(line_address)
        block = line_address // LINES_PER_RA_BLOCK
        return self._base + block * CACHELINE_BYTES

    def write_bit(self, line_address: int, bit: int) -> int:
        """Store a spilled bit; returns the RA block address to write."""
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        self._check_line(line_address)
        self._bits[line_address] = bit
        self.stats.writes += 1
        return self.block_address(line_address)

    def read_bit(self, line_address: int) -> int:
        """Fetch the spilled bit for a collision line."""
        self._check_line(line_address)
        if line_address not in self._bits:
            raise KeyError(
                f"no spilled bit recorded for line {line_address:#x}; "
                "read_bit is only valid after a collision write"
            )
        self.stats.reads += 1
        return self._bits[line_address]

    def has_bit(self, line_address: int) -> bool:
        return line_address in self._bits

    def _check_line(self, line_address: int) -> None:
        if not 0 <= line_address < self._lines:
            raise ValueError(
                f"line {line_address:#x} outside the {self._lines}-line space"
            )
