"""Size-only compressibility classifiers for the BDI and FPC codecs.

The simulator asks "does this line fit in 30 bytes?" orders of magnitude
more often than it needs the encoded bytes: every data-model generation
probe, every oracle-metadata lookup and every COPR training event only
consumes the *size*.  These classifiers compute the exact best payload
size of :class:`repro.compression.bdi.BdiCompressor` and
:class:`repro.compression.fpc.FpcCompressor` without building a payload
or a bitstream, plus enough information (a *token*) to materialise the
identical winning encoding later, when a BLEM write path or the verifier
actually needs the bytes.

Equivalence contract (enforced by hypothesis tests in
``tests/test_fastpath.py``): for every 64-byte line,

* ``classify(algo)(data)`` is ``None`` exactly when ``algo.compress``
  returns ``None``, and otherwise reports the same ``block.size``;
* ``materialize(algo, data, token)`` reproduces ``algo.compress(data)``
  byte-for-byte.

The classifiers deliberately mirror the codecs' selection rules
(iteration order, strict-less-than tie-breaking); any change to the
codecs must be reflected here and will be caught by the differential
tests.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional, Tuple

from repro.compression.base import (
    CompressedBlock,
    CompressionAlgorithm,
    DecompressionError,
)
from repro.compression.bdi import (
    _BASE_DELTA_CONFIGS,
    _CONFIG_REPEAT8,
    _CONFIG_ZEROS,
    BdiCompressor,
)
from repro.compression.fpc import FpcCompressor
from repro.util.bitops import CACHELINE_BYTES

#: ``(size, token)`` — size in bytes of the best encoding, token is the
#: classifier-private handle :func:`materialize` needs to rebuild it.
#: Classifiers accept an optional byte *limit*: sizes above it may be
#: reported as ``None`` (the caller was going to discard them), which
#: lets the classifier stop early.  ``limit=None`` is exact.
Classified = Optional[Tuple[int, object]]
Classifier = Callable[..., Classified]

_ZERO_LINE = bytes(CACHELINE_BYTES)

# ----------------------------------------------------------------------
# BDI
# ----------------------------------------------------------------------

#: Encoded payload size is fixed per configuration:
#: 1 config byte + mask + base + one delta per word.
_BDI_CONFIG_SIZE = {
    config_id: (
        1
        + (CACHELINE_BYTES // base_size + 7) // 8
        + base_size
        + (CACHELINE_BYTES // base_size) * delta_size
    )
    for config_id, (base_size, delta_size) in _BASE_DELTA_CONFIGS.items()
}

#: Configurations in win order: ascending size, original iteration order
#: breaking ties (``BdiCompressor.compress`` keeps the first strictly
#: smaller payload, so the earliest config wins among equal sizes).  The
#: first *feasible* entry of this list is exactly the config the full
#: encoder would pick.
_BDI_WIN_ORDER = sorted(
    _BASE_DELTA_CONFIGS,
    key=lambda config_id: (
        _BDI_CONFIG_SIZE[config_id],
        list(_BASE_DELTA_CONFIGS).index(config_id),
    ),
)

#: struct formats yielding *signed* little-endian words per base size.
_SIGNED_FMT = {8: struct.Struct("<8q"), 4: struct.Struct("<16i"), 2: struct.Struct("<32h")}


def _base_delta_feasible(signed_words, delta_bits: int, base_bits: int) -> bool:
    """Mirror of ``BdiCompressor._assign_bases`` feasibility.

    Every word must fit the implicit zero base or sit within delta range
    of the explicit base (the first word that misses the zero base), the
    difference taken modulo ``2**base_bits`` as the codec takes it.
    """
    half = 1 << (delta_bits - 1)
    lo = -half
    hi = half - 1
    wrap = 1 << base_bits
    base = None
    for word in signed_words:
        if lo <= word <= hi:
            continue
        if base is None:
            base = word  # delta 0 always fits
            continue
        diff = word - base
        if diff > hi:
            diff -= wrap
        elif diff < lo:
            diff += wrap
        if not lo <= diff <= hi:
            return False
    return True


def bdi_classify(data: bytes, limit: int = None) -> Classified:
    """Best BDI encoding of *data* as ``(size, token)``, or ``None``.

    With a *limit*, configurations whose fixed payload size exceeds it
    are not tried: sizes ascend along the win order, so once one config
    is over the limit the true winner (the first feasible config) could
    only be a size the caller discards anyway.
    """
    if data == _ZERO_LINE:
        return 1, _CONFIG_ZEROS
    if data == data[:8] * (CACHELINE_BYTES // 8):
        return (9, _CONFIG_REPEAT8) if limit is None or limit >= 9 else None
    words_by_base = {}
    for config_id in _BDI_WIN_ORDER:
        size = _BDI_CONFIG_SIZE[config_id]
        if limit is not None and size > limit:
            return None
        base_size, delta_size = _BASE_DELTA_CONFIGS[config_id]
        words = words_by_base.get(base_size)
        if words is None:
            words = words_by_base[base_size] = _SIGNED_FMT[base_size].unpack(data)
        if _base_delta_feasible(words, 8 * delta_size, 8 * base_size):
            return size, config_id
    return None


def bdi_materialize(
    algorithm: BdiCompressor, data: bytes, token: object
) -> CompressedBlock:
    """Rebuild the winning BDI encoding selected by :func:`bdi_classify`."""
    if token == _CONFIG_ZEROS:
        return CompressedBlock(algorithm.name, bytes([_CONFIG_ZEROS]))
    if token == _CONFIG_REPEAT8:
        return CompressedBlock(algorithm.name, bytes([_CONFIG_REPEAT8]) + data[:8])
    base_size, delta_size = _BASE_DELTA_CONFIGS[token]
    payload = algorithm._try_base_delta(data, token, base_size, delta_size)
    if payload is None:  # pragma: no cover - classifier/codec divergence
        raise RuntimeError(
            f"BDI size classifier accepted config {token} but the encoder "
            "rejected it; classifier and codec are out of sync"
        )
    return CompressedBlock(algorithm.name, payload)


# ----------------------------------------------------------------------
# FPC
# ----------------------------------------------------------------------

_FPC_WORDS = struct.Struct("<16I")
_MAX_ZERO_RUN = 8

#: word -> body bits.  Word values repeat heavily across lines (small
#: integers, repeated fill patterns), so the per-word analysis is worth
#: memoising; bounded so fully-random workloads cannot grow it.
_FPC_BITS_CACHE: dict = {}
_FPC_BITS_CACHE_LIMIT = 1 << 16


def fpc_classify(data: bytes, limit: int = None) -> Classified:
    """Exact FPC payload size of *data* as ``(size, None)``, or ``None``.

    With a *limit*, the scan aborts as soon as the running bit count can
    no longer fit ``limit`` bytes (bits only accumulate).
    """
    words = _FPC_WORDS.unpack(data)
    bits_of = _FPC_BITS_CACHE
    max_bits = 8 * (CACHELINE_BYTES if limit is None else min(limit, CACHELINE_BYTES))
    bits = 0
    index = 0
    while index < 16:
        word = words[index]
        if word == 0:
            run = 1
            while index + run < 16 and words[index + run] == 0 and run < _MAX_ZERO_RUN:
                run += 1
            bits += 6  # 3-bit prefix + 3-bit run length
            index += run
            continue
        body = bits_of.get(word)
        if body is None:
            # Body bit width of one non-zero word (mirror of
            # ``_encode_word``), computed inline rather than in a helper:
            # high-entropy workloads miss the cache on nearly every word,
            # so a call's overhead would show.
            signed = word - 0x100000000 if word & 0x80000000 else word
            if -128 <= signed <= 127:
                body = 4 if -8 <= signed <= 7 else 8
            elif -32768 <= signed <= 32767 or word & 0xFFFF == 0:
                body = 16
            else:
                high = word >> 16
                low = word & 0xFFFF
                high_signed = high - 0x10000 if high & 0x8000 else high
                low_signed = low - 0x10000 if low & 0x8000 else low
                if -128 <= high_signed <= 127 and -128 <= low_signed <= 127:
                    body = 16
                elif word == (word & 0xFF) * 0x01010101:
                    body = 8
                else:
                    body = 32
            if len(bits_of) >= _FPC_BITS_CACHE_LIMIT:
                bits_of.clear()
            bits_of[word] = body
        bits += 3 + body
        if bits > max_bits:
            return None
        index += 1
    size = (bits + 7) // 8
    if size >= CACHELINE_BYTES:
        return None
    return size, None


def fpc_decode_prefix(padded_payload: bytes) -> bytes:
    """Decode a zero-padded FPC payload slot without a BitReader.

    Byte-for-byte mirror of ``FpcCompressor.decompress_prefix``: the
    whole slot becomes one big integer and bodies are extracted MSB-first
    with shifts, instead of one ``BitReader.read`` call per bit.  Raises
    the same exceptions on malformed input.
    """
    total_bits = 8 * len(padded_payload)
    stream = int.from_bytes(padded_payload, "big")
    pos = 0
    words = []
    append = words.append
    while len(words) < 16:
        if total_bits - pos < 3:
            raise DecompressionError("truncated FPC payload")
        pos += 3
        prefix = (stream >> (total_bits - pos)) & 0x7
        if prefix == 0b000:  # zero run
            pos += 3
            if pos > total_bits:
                raise ValueError("bit stream exhausted")
            run = ((stream >> (total_bits - pos)) & 0x7) + 1
            words.extend([0] * run)
            continue
        if prefix == 0b001:  # 4-bit sign-extended
            pos += 4
            if pos > total_bits:
                raise ValueError("bit stream exhausted")
            body = (stream >> (total_bits - pos)) & 0xF
            append(body | 0xFFFFFFF0 if body & 0x8 else body)
        elif prefix == 0b010:  # 8-bit sign-extended
            pos += 8
            if pos > total_bits:
                raise ValueError("bit stream exhausted")
            body = (stream >> (total_bits - pos)) & 0xFF
            append(body | 0xFFFFFF00 if body & 0x80 else body)
        elif prefix == 0b011:  # 16-bit sign-extended
            pos += 16
            if pos > total_bits:
                raise ValueError("bit stream exhausted")
            body = (stream >> (total_bits - pos)) & 0xFFFF
            append(body | 0xFFFF0000 if body & 0x8000 else body)
        elif prefix == 0b100:  # halfword padded with zeros
            pos += 16
            if pos > total_bits:
                raise ValueError("bit stream exhausted")
            append(((stream >> (total_bits - pos)) & 0xFFFF) << 16)
        elif prefix == 0b101:  # two sign-extended byte halves
            pos += 16
            if pos > total_bits:
                raise ValueError("bit stream exhausted")
            body = (stream >> (total_bits - pos)) & 0xFFFF
            high = body >> 8
            if high & 0x80:
                high |= 0xFF00
            low = body & 0xFF
            if low & 0x80:
                low |= 0xFF00
            append((high << 16) | low)
        elif prefix == 0b110:  # repeated bytes
            pos += 8
            if pos > total_bits:
                raise ValueError("bit stream exhausted")
            append(((stream >> (total_bits - pos)) & 0xFF) * 0x01010101)
        else:  # 0b111: uncompressed word
            pos += 32
            if pos > total_bits:
                raise ValueError("bit stream exhausted")
            append((stream >> (total_bits - pos)) & 0xFFFFFFFF)
    if len(words) != 16:
        raise DecompressionError(
            f"FPC payload decoded to {len(words)} words, expected 16"
        )
    return struct.pack("<16I", *words)


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------


def prefix_decoder(
    algorithm: CompressionAlgorithm,
) -> Optional[Callable[[bytes], bytes]]:
    """Fast ``decompress_prefix`` for *algorithm*, or ``None``.

    Exact-type check for the same reason as :func:`classify`.
    """
    if type(algorithm) is FpcCompressor:
        return fpc_decode_prefix
    return None


def classify(algorithm: CompressionAlgorithm) -> Optional[Classifier]:
    """Size-only classifier for *algorithm*, or ``None`` if unsupported.

    Exact-type checks on purpose: a subclass may change the encoding, and
    serving it the parent's classifier would silently diverge.
    """
    if type(algorithm) is BdiCompressor:
        return bdi_classify
    if type(algorithm) is FpcCompressor:
        return fpc_classify
    return None


def materialize(
    algorithm: CompressionAlgorithm, data: bytes, token: object
) -> CompressedBlock:
    """Produce the full winning encoding for a classified line."""
    if type(algorithm) is BdiCompressor:
        return bdi_materialize(algorithm, data, token)
    block = algorithm.compress(data)
    if block is None:  # pragma: no cover - classifier/codec divergence
        raise RuntimeError(
            f"{algorithm.name} size classifier accepted a line the encoder "
            "rejects; classifier and codec are out of sync"
        )
    return block
