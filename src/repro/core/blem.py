"""BLEM — the Blended Metadata Engine (paper Section IV-A/IV-B).

BLEM stores each line's compression metadata inside the line itself:

* A **Metadata-Header** occupies the top bits of the stored 32-byte
  sub-rank image: a CID (Compression ID, boot-time random), optional
  *info bits* (e.g. which compression algorithm produced the payload —
  Table I), and a 1-bit XID (Exclusive ID).
* Compressed lines (payload <= 30 B) are stored as header + scrambled
  payload in a single sub-rank; the header's XID is 0.
* Uncompressed lines are scrambled whole and stored across both
  sub-ranks.  If the scrambled line's top bits *happen* to equal the CID
  (a collision, probability 2^-cid_bits), BLEM overwrites the XID bit
  position with 1 and spills the displaced data bit to the Replacement
  Area.
* On a read, the header bits classify the line with no separate metadata
  access: top bits != CID -> uncompressed; == CID and XID == 0 ->
  compressed; == CID and XID == 1 -> collision (fetch the spilled bit).

The default header is a 14-bit CID + 1 algorithm info bit + XID, the
Table I configuration that supports the paper's dual BDI/FPC engine in a
2-byte header (collision probability 2^-14 = 0.006 %).  A pure 15-bit
CID (0.003 %) is available by fixing a single algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

from repro import fastpath
from repro.compression import CompressedBlock, CompressionEngine
from repro.scramble import DataScrambler
from repro.util.bitops import CACHELINE_BYTES, extract_bits, insert_bits
from repro.util.rng import DeterministicRng

SUBRANK_BYTES = 32


@dataclass(frozen=True)
class BlemConfig:
    """Metadata-Header geometry.

    ``cid_bits + info_bits + 1`` must fit in the header budget (16 bits,
    so compressed payloads of 30 bytes fit a 32-byte sub-rank beat).
    """

    cid_bits: int = 14
    info_bits: int = 1
    header_bits_budget: int = 16

    def __post_init__(self) -> None:
        if self.cid_bits <= 0:
            raise ValueError("cid_bits must be positive")
        if self.info_bits < 0:
            raise ValueError("info_bits must be non-negative")
        if self.header_bits() > self.header_bits_budget:
            raise ValueError(
                f"header needs {self.header_bits()} bits, budget is "
                f"{self.header_bits_budget}"
            )

    def header_bits(self) -> int:
        """CID + info + XID."""
        return self.cid_bits + self.info_bits + 1

    @property
    def xid_bit_offset(self) -> int:
        """Bit position (MSB-first) of the XID within the line."""
        return self.cid_bits + self.info_bits

    @property
    def collision_probability(self) -> float:
        """Chance an uncompressed (scrambled) line matches the CID."""
        return 2.0 ** -self.cid_bits


class StoredLine(NamedTuple):
    """The physical image of one line in DRAM, split into sub-rank halves.

    A NamedTuple rather than a dataclass: one is built per encoded write,
    which makes construction cost part of the write path.

    Attributes:
        halves: the two 32-byte images; ``halves[primary]`` carries the
            Metadata-Header (the paper stores uncompressed data "flipped"
            in even rows so the header always lands in the sub-rank read
            first).
        primary: index of the header-bearing sub-rank.
        is_compressed: ground truth (for oracle controllers and checks).
        collision: uncompressed line stored with XID forced to 1.
    """

    halves: Tuple[bytes, bytes]
    primary: int
    is_compressed: bool
    collision: bool

    def primary_half(self) -> bytes:
        return self.halves[self.primary]

    def assembled(self) -> bytes:
        """The 64 stored bytes in logical order (primary half first)."""
        return self.halves[self.primary] + self.halves[1 - self.primary]


@dataclass
class BlemStats:
    """Write/read classification counters."""

    writes_compressed: int = 0
    writes_uncompressed: int = 0
    write_collisions: int = 0
    reads_compressed: int = 0
    reads_uncompressed: int = 0
    read_collisions: int = 0

    @property
    def collision_rate(self) -> float:
        total = self.writes_compressed + self.writes_uncompressed
        return self.write_collisions / total if total else 0.0

    def snapshot(self) -> dict:
        """Flat counter view for observability samplers."""
        return {
            "writes_compressed": self.writes_compressed,
            "writes_uncompressed": self.writes_uncompressed,
            "write_collisions": self.write_collisions,
            "reads_compressed": self.reads_compressed,
            "reads_uncompressed": self.reads_uncompressed,
            "read_collisions": self.read_collisions,
        }


class BlemEngine:
    """Encodes lines on writes and classifies them on reads."""

    def __init__(
        self,
        engine: CompressionEngine,
        scrambler: DataScrambler,
        config: BlemConfig = BlemConfig(),
        boot_seed: int = 0xB007,
    ) -> None:
        self._engine = engine
        self._scrambler = scrambler
        self._config = config
        # The CID value is chosen randomly at boot time (Section I).
        self._cid = DeterministicRng(boot_seed).next_below(1 << config.cid_bits)
        self._algorithm_codes: Dict[str, int] = {
            name: index for index, name in enumerate(engine.algorithm_names)
        }
        if config.info_bits == 0 and len(self._algorithm_codes) > 1:
            raise ValueError(
                "info_bits=0 cannot distinguish multiple compression "
                "algorithms; fix a single algorithm or add info bits"
            )
        if max(self._algorithm_codes.values(), default=0) >= (1 << max(config.info_bits, 1)):
            raise ValueError("info_bits too small for the algorithm count")
        self.stats = BlemStats()
        self._algorithm_names = list(self._algorithm_codes)
        # Fast header ops: when the header budget is exactly two bytes the
        # MSB-first bit fields live entirely in a 16-bit big-endian prefix,
        # so the per-bit extract/insert loops collapse into integer shifts.
        # Equivalence is pinned by tests/test_blem.py + test_fastpath.py.
        self._fast_header = fastpath.enabled() and config.header_bits_budget == 16
        if self._fast_header:
            cid_shift = 16 - config.cid_bits
            info_shift = cid_shift - config.info_bits
            self._cid_shift = cid_shift
            self._info_shift = info_shift
            self._info_mask = (1 << config.info_bits) - 1
            self._xid_mask = 1 << (15 - config.xid_bit_offset)
            #: algorithm code -> the 2-byte header prefix of a compressed
            #: line (CID | info bits, XID = 0), ready to prepend verbatim.
            self._header_prefix = {
                code: ((self._cid << cid_shift) | (code << info_shift)).to_bytes(2, "big")
                for code in self._algorithm_codes.values()
            }
        #: Everything encode_write and decode_read compute depends on:
        #: engines with equal fingerprints store and read every line
        #: alike.
        self.fingerprint = (config, scrambler.seed, boot_seed, engine.fingerprint)

    @property
    def config(self) -> BlemConfig:
        return self._config

    @property
    def cid(self) -> int:
        """The boot-time CID value."""
        return self._cid

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def encode_write(
        self, address: int, data: bytes, primary_subrank: int
    ) -> Tuple[StoredLine, Optional[int]]:
        """Encode *data* for storage at *address*.

        Returns ``(stored_line, spilled_bit)``; ``spilled_bit`` is the
        displaced data bit to write to the Replacement Area on a CID
        collision, else ``None``.
        """
        if len(data) != CACHELINE_BYTES:
            raise ValueError(f"expected 64-byte line, got {len(data)}")
        if primary_subrank not in (0, 1):
            raise ValueError("primary_subrank must be 0 or 1")
        block = self._engine.compress(data)
        if block is not None:
            self.stats.writes_compressed += 1
            return self._encode_compressed(address, block, primary_subrank), None
        self.stats.writes_uncompressed += 1
        return self._encode_uncompressed(address, data, primary_subrank)

    def _encode_compressed(
        self, address: int, block: CompressedBlock, primary: int
    ) -> StoredLine:
        config = self._config
        header_bytes = config.header_bits_budget // 8
        slot_bytes = SUBRANK_BYTES - header_bytes
        # Pad the payload to the full slot *before* scrambling so the
        # read path can descramble the whole slot deterministically.
        padded = block.payload + bytes(slot_bytes - len(block.payload))
        payload = self._scrambler.scramble(address, padded)
        if self._fast_header:
            image = self._header_prefix[self._algorithm_codes[block.algorithm]] + payload
        else:
            image = bytes(SUBRANK_BYTES)
            image = insert_bits(image, 0, config.cid_bits, self._cid)
            if config.info_bits:
                image = insert_bits(
                    image, config.cid_bits, config.info_bits,
                    self._algorithm_codes[block.algorithm],
                )
            # XID = 0 (already zero), payload after the header budget.
            image = image[:header_bytes] + payload
        halves = [bytes(SUBRANK_BYTES), bytes(SUBRANK_BYTES)]
        halves[primary] = image
        return StoredLine(
            halves=tuple(halves), primary=primary,
            is_compressed=True, collision=False,
        )

    def _encode_uncompressed(
        self, address: int, data: bytes, primary: int
    ) -> Tuple[StoredLine, Optional[int]]:
        config = self._config
        scrambled = self._scrambler.scramble(address, data)
        spilled: Optional[int] = None
        if self._fast_header:
            header = int.from_bytes(scrambled[:2], "big")
            collision = (header >> self._cid_shift) == self._cid
            if collision:
                self.stats.write_collisions += 1
                spilled = 1 if header & self._xid_mask else 0
                scrambled = (header | self._xid_mask).to_bytes(2, "big") + scrambled[2:]
        else:
            collision = extract_bits(scrambled, 0, config.cid_bits) == self._cid
            if collision:
                self.stats.write_collisions += 1
                spilled = extract_bits(scrambled, config.xid_bit_offset, 1)
                scrambled = insert_bits(scrambled, config.xid_bit_offset, 1, 1)
        halves = [scrambled[:SUBRANK_BYTES], scrambled[SUBRANK_BYTES:]]
        if primary == 1:
            halves.reverse()
        return (
            StoredLine(
                halves=tuple(halves), primary=primary,
                is_compressed=False, collision=collision,
            ),
            spilled,
        )

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def classify_half(self, half: bytes) -> str:
        """Interpret the Metadata-Header of a primary sub-rank image.

        Returns ``"compressed"``, ``"uncompressed"`` or ``"collision"``.
        This is the metadata lookup BLEM gets for free with the data.
        """
        if len(half) != SUBRANK_BYTES:
            raise ValueError(f"expected a {SUBRANK_BYTES}-byte half")
        config = self._config
        if self._fast_header:
            header = int.from_bytes(half[:2], "big")
            if (header >> self._cid_shift) != self._cid:
                return "uncompressed"
            if header & self._xid_mask:
                return "collision"
            return "compressed"
        if extract_bits(half, 0, config.cid_bits) != self._cid:
            return "uncompressed"
        if extract_bits(half, config.xid_bit_offset, 1) == 1:
            return "collision"
        return "compressed"

    def decode_read(
        self,
        address: int,
        stored: StoredLine,
        spilled_bit: Optional[int] = None,
    ) -> bytes:
        """Reconstruct the original 64 data bytes of a stored line.

        For collision lines the caller must supply the Replacement-Area
        bit (obtained with an extra memory read, the only case BLEM ever
        needs one).
        """
        config = self._config
        classification = self.classify_half(stored.primary_half())
        if classification == "compressed":
            self.stats.reads_compressed += 1
            return self._decode_compressed(address, stored.primary_half())
        # assembled() restores logical order (header-bearing half first).
        scrambled = stored.assembled()
        if classification == "collision":
            self.stats.read_collisions += 1
            if spilled_bit is None:
                raise ValueError(
                    "collision line requires the Replacement-Area bit"
                )
            scrambled = insert_bits(
                scrambled, config.xid_bit_offset, 1, spilled_bit
            )
        else:
            self.stats.reads_uncompressed += 1
        return self._scrambler.descramble(address, scrambled)

    def _decode_compressed(self, address: int, half: bytes) -> bytes:
        config = self._config
        header_bytes = config.header_bits_budget // 8
        if not config.info_bits:
            algorithm_code = 0
        elif self._fast_header:
            algorithm_code = (
                int.from_bytes(half[:2], "big") >> self._info_shift
            ) & self._info_mask
        else:
            algorithm_code = extract_bits(half, config.cid_bits, config.info_bits)
        algorithm = self._algorithm_names[algorithm_code]
        padded = self._scrambler.descramble(address, half[header_bytes:])
        return self._engine.decompress_prefix(algorithm, padded)
