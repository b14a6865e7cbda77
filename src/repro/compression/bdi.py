"""Base-Delta-Immediate (BDI) compression [Pekhimenko+, PACT'12].

BDI exploits low dynamic range: the words of a cacheline often differ
from a common base (and/or from zero) by small deltas.  This
implementation is the dual-base variant from the original paper — an
implicit zero base plus one explicit base chosen from the line — with a
per-word mask selecting the base.

Encoded payload layout (self-describing, exactly reproducible)::

    [config_id: 1 byte][mask][base][deltas]

where ``config_id`` selects (base size, delta size) and the special
all-zero / repeated-value encodings.  The payload length is the size the
sub-ranking decision uses; it includes the 1-byte config header, which a
hardware implementation would fold into metadata.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.compression.base import (
    CompressedBlock,
    CompressionAlgorithm,
    DecompressionError,
)
from repro.util.bitops import (
    CACHELINE_BYTES,
    bytes_to_words,
    fits_signed,
    sign_extend,
    to_signed,
    to_unsigned,
    words_to_bytes,
)

_CONFIG_ZEROS = 0
_CONFIG_REPEAT8 = 1

#: config_id -> (base_size_bytes, delta_size_bytes)
_BASE_DELTA_CONFIGS = {
    2: (8, 1),
    3: (8, 2),
    4: (8, 4),
    5: (4, 1),
    6: (4, 2),
    7: (2, 1),
}


class BdiCompressor(CompressionAlgorithm):
    """Dual-base Base-Delta-Immediate compressor for 64-byte lines."""

    name = "bdi"

    def compress(self, data: bytes) -> Optional[CompressedBlock]:
        """Try every BDI configuration and keep the smallest encoding."""
        self._check_line(data)

        if data == bytes(CACHELINE_BYTES):
            return CompressedBlock(self.name, bytes([_CONFIG_ZEROS]))

        best: Optional[bytes] = None
        repeat = self._try_repeat8(data)
        if repeat is not None:
            best = repeat
        for config_id, (base_size, delta_size) in _BASE_DELTA_CONFIGS.items():
            payload = self._try_base_delta(data, config_id, base_size, delta_size)
            if payload is not None and (best is None or len(payload) < len(best)):
                best = payload

        if best is None or len(best) >= CACHELINE_BYTES:
            return None
        return CompressedBlock(self.name, best)

    def decompress(self, payload: bytes) -> bytes:
        """Decode a BDI payload back to the original 64-byte line."""
        if not payload:
            raise DecompressionError("empty BDI payload")
        config_id = payload[0]
        if config_id == _CONFIG_ZEROS:
            if len(payload) != 1:
                raise DecompressionError("malformed all-zeros payload")
            return bytes(CACHELINE_BYTES)
        if config_id == _CONFIG_REPEAT8:
            if len(payload) != 9:
                raise DecompressionError("malformed repeat8 payload")
            return payload[1:9] * (CACHELINE_BYTES // 8)
        if config_id not in _BASE_DELTA_CONFIGS:
            raise DecompressionError(f"unknown BDI config id {config_id}")
        base_size, delta_size = _BASE_DELTA_CONFIGS[config_id]
        return self._decode_base_delta(payload, base_size, delta_size)

    def decompress_prefix(self, padded_payload: bytes) -> bytes:
        """Decode a zero-padded payload slot (BLEM storage format).

        BDI payloads are length-determined by their config byte, so the
        exact prefix can be cut before strict decoding.
        """
        if not padded_payload:
            raise DecompressionError("empty BDI payload")
        return self.decompress(padded_payload[: self.payload_length(padded_payload)])

    @staticmethod
    def payload_length(payload: bytes) -> int:
        """Exact encoded length implied by the payload's config byte."""
        if not payload:
            raise DecompressionError("empty BDI payload")
        config_id = payload[0]
        if config_id == _CONFIG_ZEROS:
            return 1
        if config_id == _CONFIG_REPEAT8:
            return 9
        if config_id not in _BASE_DELTA_CONFIGS:
            raise DecompressionError(f"unknown BDI config id {config_id}")
        base_size, delta_size = _BASE_DELTA_CONFIGS[config_id]
        n_words = CACHELINE_BYTES // base_size
        return 1 + (n_words + 7) // 8 + base_size + n_words * delta_size

    # ------------------------------------------------------------------
    # Encoders
    # ------------------------------------------------------------------

    def _try_repeat8(self, data: bytes) -> Optional[bytes]:
        first = data[:8]
        if data == first * (CACHELINE_BYTES // 8):
            return bytes([_CONFIG_REPEAT8]) + first
        return None

    def _try_base_delta(
        self, data: bytes, config_id: int, base_size: int, delta_size: int
    ) -> Optional[bytes]:
        words = bytes_to_words(data, base_size)
        delta_bits = 8 * delta_size
        base_bits = 8 * base_size

        encoded = self._assign_bases(words, base_bits, delta_bits)
        if encoded is None:
            return None
        base, mask_bits, deltas = encoded

        mask_bytes = (len(words) + 7) // 8
        mask_value = 0
        for index, uses_base in enumerate(mask_bits):
            if uses_base:
                mask_value |= 1 << index
        payload = bytearray([config_id])
        payload += mask_value.to_bytes(mask_bytes, "little")
        payload += base.to_bytes(base_size, "little")
        for delta in deltas:
            payload += delta.to_bytes(delta_size, "little")
        return bytes(payload)

    @staticmethod
    def _assign_bases(
        words: List[int], base_bits: int, delta_bits: int
    ) -> Optional[Tuple[int, List[bool], List[int]]]:
        """Pick the explicit base and compute per-word deltas.

        Returns ``(base, uses_explicit_base_flags, unsigned_deltas)`` or
        ``None`` when some word fits neither the zero base nor the
        explicit base.  The explicit base is the first word that does not
        fit the zero base, as in the original hardware proposal.
        """
        base: Optional[int] = None
        mask: List[bool] = []
        deltas: List[int] = []
        for word in words:
            signed_word = to_signed(word, base_bits)
            if fits_signed(signed_word, delta_bits):
                mask.append(False)
                deltas.append(to_unsigned(signed_word, delta_bits))
                continue
            if base is None:
                base = word
            # Deltas are fixed-width differences, as BDI hardware
            # subtracts: words straddling the signed boundary can still
            # sit within delta range of the base.
            diff = to_signed(to_unsigned(word - base, base_bits), base_bits)
            if not fits_signed(diff, delta_bits):
                return None
            mask.append(True)
            deltas.append(to_unsigned(diff, delta_bits))
        if base is None:
            # Every word fit the zero base; any base value decodes fine.
            base = 0
        return base, mask, deltas

    # ------------------------------------------------------------------
    # Decoder
    # ------------------------------------------------------------------

    @staticmethod
    def _decode_base_delta(payload: bytes, base_size: int, delta_size: int) -> bytes:
        n_words = CACHELINE_BYTES // base_size
        mask_bytes = (n_words + 7) // 8
        expected = 1 + mask_bytes + base_size + n_words * delta_size
        if len(payload) != expected:
            raise DecompressionError(
                f"BDI payload length {len(payload)} != expected {expected}"
            )
        offset = 1
        mask_value = int.from_bytes(payload[offset : offset + mask_bytes], "little")
        offset += mask_bytes
        base = int.from_bytes(payload[offset : offset + base_size], "little")
        offset += base_size

        base_bits = 8 * base_size
        delta_bits = 8 * delta_size
        signed_base = to_signed(base, base_bits)
        words: List[int] = []
        for index in range(n_words):
            raw = int.from_bytes(payload[offset : offset + delta_size], "little")
            offset += delta_size
            delta = sign_extend(raw, delta_bits)
            if (mask_value >> index) & 1:
                words.append(to_unsigned(signed_base + delta, base_bits))
            else:
                words.append(to_unsigned(delta, base_bits))
        return words_to_bytes(words, base_size)
