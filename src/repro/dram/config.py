"""DRAM organization, timing and address mapping (Table II of the paper).

All timing values are in memory-controller clock cycles at the DDR bus
frequency (1600 MHz in the baseline, so one cycle = 0.625 ns).  The
baseline system of the paper: 2 channels, 1 rank/channel, 4 bank groups x
4 banks, 64K rows/bank, 128 64-byte blocks per row, tRCD = tRP = tCAS =
22, tRFC = 350 ns, tREFI = 7.8 us.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import fastpath
from repro.util.bitops import CACHELINE_BYTES


@dataclass(frozen=True)
class DramTiming:
    """JEDEC-style timing constraints, in memory-bus clock cycles."""

    t_rcd: int = 22  #: ACT -> column command
    t_rp: int = 22  #: PRE -> ACT
    t_cas: int = 22  #: RD -> first data beat (CL)
    t_cwd: int = 20  #: WR -> first data beat (CWL)
    t_ras: int = 52  #: ACT -> PRE
    t_wr: int = 24  #: end of write data -> PRE (write recovery)
    t_rtp: int = 12  #: RD -> PRE
    t_burst: int = 4  #: data beats for a full-width 64-byte transfer
    t_ccd_s: int = 4  #: column-to-column, different bank group
    t_ccd_l: int = 8  #: column-to-column, same bank group
    t_rrd_s: int = 4  #: ACT-to-ACT, different bank group
    t_rrd_l: int = 8  #: ACT-to-ACT, same bank group
    t_faw: int = 32  #: window in which at most 4 ACTs may issue per rank
    t_wtr: int = 12  #: end of write data -> RD in same rank
    t_rtw: int = 8  #: RD -> WR command spacing
    t_rfc: int = 560  #: refresh cycle time (350 ns @ 1600 MHz)
    t_refi: int = 12480  #: refresh interval (7.8 us @ 1600 MHz)

    def __post_init__(self) -> None:
        for name in (
            "t_rcd", "t_rp", "t_cas", "t_cwd", "t_ras", "t_wr", "t_rtp",
            "t_burst", "t_ccd_s", "t_ccd_l", "t_rrd_s", "t_rrd_l", "t_faw",
            "t_wtr", "t_rtw", "t_rfc", "t_refi",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"timing parameter {name} must be positive")


@dataclass(frozen=True)
class DramOrganization:
    """Physical organization of the memory system."""

    channels: int = 2
    ranks_per_channel: int = 1
    bank_groups: int = 4
    banks_per_group: int = 4
    rows_per_bank: int = 65536
    blocks_per_row: int = 128  #: 64-byte blocks per row (8 KB row)
    subranks: int = 2  #: chip-select groups per rank (1 = conventional)
    chips_per_rank: int = 8

    def __post_init__(self) -> None:
        for name in (
            "channels", "ranks_per_channel", "bank_groups", "banks_per_group",
            "rows_per_bank", "blocks_per_row", "subranks", "chips_per_rank",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"organization parameter {name} must be positive")
        if self.chips_per_rank % self.subranks != 0:
            raise ValueError(
                f"{self.chips_per_rank} chips cannot split into "
                f"{self.subranks} equal sub-ranks"
            )

    @property
    def banks_per_rank(self) -> int:
        return self.bank_groups * self.banks_per_group

    @property
    def row_bytes(self) -> int:
        return self.blocks_per_row * CACHELINE_BYTES

    @property
    def bytes_per_rank(self) -> int:
        return self.banks_per_rank * self.rows_per_bank * self.row_bytes

    @property
    def total_bytes(self) -> int:
        return self.channels * self.ranks_per_channel * self.bytes_per_rank

    @property
    def chips_per_subrank(self) -> int:
        return self.chips_per_rank // self.subranks

    def subrank_of_row(self, row: int) -> int:
        """Sub-rank that stores *compressed* lines of a row.

        The paper packs compressed lines of odd rows into sub-rank 0 and
        even rows into sub-rank 1 (Section IV-E); generalised here to
        ``row % subranks``.
        """
        return row % self.subranks

    def subrank_of_location(self, row: int, bank_group: int, bank: int) -> int:
        """Static sub-rank placement for compressed lines.

        The paper's row-parity rule keeps a streaming access sequence on
        one sub-rank for whole-row stretches, idling the other; mixing
        the bank coordinates into the parity (equally trivial in
        hardware) interleaves compressed traffic across sub-ranks at
        fine grain while remaining a pure function of the address.
        """
        return (row + bank_group + bank) % self.subranks


@dataclass(frozen=True)
class MemoryAddress:
    """A fully decoded physical block address."""

    channel: int
    rank: int
    bank_group: int
    bank: int
    row: int
    column: int


class AddressMapper:
    """Maps flat physical addresses to DRAM coordinates and back.

    Bit layout, low to high (after the 6 offset bits of a 64-byte line):
    column-low | channel | bank group | column-high | bank | rank | row.

    The lowest ``column_low_bits`` column bits stay at the bottom so a
    short spatial burst (a multi-line object, a prefetch run) lands in
    one open row; channel and bank-group bits follow so longer streams
    interleave across channels and dodge the same-bank-group tCCD_L
    spacing — both standard DDR4 controller practice.
    """

    def __init__(self, organization: DramOrganization, column_low_bits: int = 2) -> None:
        if column_low_bits < 0:
            raise ValueError("column_low_bits must be non-negative")
        if (1 << column_low_bits) > organization.blocks_per_row:
            raise ValueError("column_low_bits exceeds the column field")
        self._org = organization
        self._col_low_bits = column_low_bits
        self._col_low = 1 << column_low_bits
        self._col_high = organization.blocks_per_row // self._col_low
        #: Everything decode() depends on: mappers with equal
        #: fingerprints place every address alike.
        self.fingerprint = (organization, column_low_bits)
        # decode() is pure and called several times per access (controller,
        # memory system, sub-rank placement); the fast path memoises the
        # frozen result per address with a bounded cache, which mappers
        # of one fingerprint may share (fastpath.share_memos).
        self._decode_cache: dict = (
            fastpath.memo("dram.decode", self.fingerprint)
            if fastpath.enabled() else None
        )

    @property
    def organization(self) -> DramOrganization:
        return self._org

    def line_address(self, byte_address: int) -> int:
        """The block index of a byte address (drops the 6 offset bits)."""
        return byte_address // CACHELINE_BYTES

    def decode(self, byte_address: int) -> MemoryAddress:
        """Decode a byte address into DRAM coordinates."""
        cache = self._decode_cache
        if cache is not None:
            decoded = cache.get(byte_address)
            if decoded is not None:
                return decoded
        decoded = self._decode_uncached(byte_address)
        if cache is not None:
            if len(cache) >= fastpath.MEMO_ENTRIES:
                cache.clear()
            cache[byte_address] = decoded
        return decoded

    def _decode_uncached(self, byte_address: int) -> MemoryAddress:
        org = self._org
        block = self.line_address(byte_address)
        block, column_low = divmod(block, self._col_low)
        block, channel = divmod(block, org.channels)
        block, bank_group = divmod(block, org.bank_groups)
        block, column_high = divmod(block, self._col_high)
        block, bank = divmod(block, org.banks_per_group)
        block, rank = divmod(block, org.ranks_per_channel)
        row = block % org.rows_per_bank
        column = column_high * self._col_low + column_low
        return MemoryAddress(
            channel=channel,
            rank=rank,
            bank_group=bank_group,
            bank=bank,
            row=row,
            column=column,
        )

    def encode(self, address: MemoryAddress) -> int:
        """Inverse of :meth:`decode`; returns the byte address."""
        org = self._org
        column_high, column_low = divmod(address.column, self._col_low)
        block = address.row
        block = block * org.ranks_per_channel + address.rank
        block = block * org.banks_per_group + address.bank
        block = block * self._col_high + column_high
        block = block * org.bank_groups + address.bank_group
        block = block * org.channels + address.channel
        block = block * self._col_low + column_low
        return block * CACHELINE_BYTES


@dataclass(frozen=True)
class SystemConfig:
    """Full-system configuration (Table II)."""

    timing: DramTiming = field(default_factory=DramTiming)
    organization: DramOrganization = field(default_factory=DramOrganization)
    cpu_clock_ghz: float = 4.0
    bus_clock_mhz: float = 1600.0
    issue_width: int = 4
    cores: int = 8
    llc_bytes: int = 8 * 1024 * 1024
    llc_ways: int = 8
    llc_latency_cycles: int = 20  #: core cycles
    rob_entries: int = 192
    max_outstanding_misses: int = 32  #: per-core in-flight miss window
    write_buffer_entries: int = 64
    write_drain_high: int = 48
    write_drain_low: int = 16
    predictor_latency_cycles: int = 8  #: COPR / metadata-cache lookup (L2-like)
    page_policy: str = "open"  #: row-buffer management: "open" / "closed"

    def __post_init__(self) -> None:
        if self.cpu_clock_ghz <= 0 or self.bus_clock_mhz <= 0:
            raise ValueError("clock frequencies must be positive")
        if not 0 < self.write_drain_low < self.write_drain_high <= self.write_buffer_entries:
            raise ValueError("write drain watermarks must satisfy 0 < low < high <= entries")
        if self.page_policy not in ("open", "closed"):
            raise ValueError("page_policy must be 'open' or 'closed'")

    @property
    def core_cycles_per_bus_cycle(self) -> float:
        """Core-to-bus clock ratio (2.5 for 4 GHz over 1600 MHz)."""
        return self.cpu_clock_ghz * 1000.0 / self.bus_clock_mhz

    def core_to_bus(self, core_cycles: float) -> float:
        """Convert core cycles to memory-bus cycles."""
        return core_cycles / self.core_cycles_per_bus_cycle

    def bus_to_core(self, bus_cycles: float) -> float:
        """Convert memory-bus cycles to core cycles."""
        return bus_cycles * self.core_cycles_per_bus_cycle
