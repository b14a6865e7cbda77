"""Vectorised size-only BDI/FPC classifiers over N x 64 byte matrices.

Columnar mirror of :mod:`repro.fastpath.classifiers` with ``limit=None``
semantics: each kernel returns the exact best payload size per line
(``-1`` where the scalar classifier returns ``None``), so callers can
apply any byte limit with a comparison instead of re-classifying.

Exactness notes (enforced by differentials in ``tests/test_kernels.py``):

* BDI deltas are ``word - base`` modulo ``2**base_bits``, as in the
  codec: int64 subtraction wraps 8-byte words by itself, and 2- and
  4-byte words are wrapped with a mask;
* FPC zero-run tokens are reproduced with a 16-column scan that tracks
  the position inside the current run (runs are chopped at 8 words, 6
  bits per token), matching the scalar maximal-run walk bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..compression.bdi import _BASE_DELTA_CONFIGS
from ..fastpath.classifiers import _BDI_CONFIG_SIZE, _BDI_WIN_ORDER
from ..util.bitops import CACHELINE_BYTES

__all__ = [
    "bdi_size_matrix",
    "fpc_size_matrix",
]

_SIGNED_VIEW = {8: "<i8", 4: "<i4", 2: "<i2"}


def _base_delta_feasible_rows(
    words: np.ndarray, delta_bits: int, base_bits: int
) -> np.ndarray:
    """Row mask mirroring ``_base_delta_feasible`` over int64 word rows."""
    half = 1 << (delta_bits - 1)
    lo = np.int64(-half)
    hi = np.int64(half - 1)
    small = (words >= lo) & (words <= hi)
    has_base = ~small.all(axis=1)
    # First word outside the implicit zero base becomes the explicit base.
    base_col = np.argmax(~small, axis=1)
    base = words[np.arange(words.shape[0]), base_col]
    with np.errstate(over="ignore"):
        diff = words - base[:, None]  # wraps modulo 2**64
    if base_bits < 64:
        sign = np.int64(1 << (base_bits - 1))
        diff = ((diff + sign) & np.int64((1 << base_bits) - 1)) - sign
    in_range = (diff >= lo) & (diff <= hi)
    ok = small | in_range
    ok[np.arange(words.shape[0]), base_col] = True  # the base word itself
    return np.where(has_base, ok.all(axis=1), True)


def bdi_size_matrix(matrix: np.ndarray) -> np.ndarray:
    """Exact best BDI payload size per line; ``-1`` where BDI rejects."""
    count = matrix.shape[0]
    sizes = np.full(count, -1, dtype=np.int64)
    words_by_base = {}
    for config_id in _BDI_WIN_ORDER:
        base_size, delta_size = _BASE_DELTA_CONFIGS[config_id]
        words = words_by_base.get(base_size)
        if words is None:
            words = matrix.view(_SIGNED_VIEW[base_size]).astype(np.int64)
            words_by_base[base_size] = words
        feasible = _base_delta_feasible_rows(words, 8 * delta_size, 8 * base_size)
        sizes = np.where((sizes < 0) & feasible, _BDI_CONFIG_SIZE[config_id], sizes)
    repeat8 = (matrix.reshape(count, 8, 8) == matrix[:, None, :8]).all(axis=(1, 2))
    sizes[repeat8] = 9
    sizes[~matrix.any(axis=1)] = 1
    return sizes


def fpc_size_matrix(matrix: np.ndarray) -> np.ndarray:
    """Exact FPC payload size per line; ``-1`` where FPC rejects."""
    count = matrix.shape[0]
    unsigned = matrix.view("<u4").astype(np.int64)
    signed = np.where(unsigned >= 1 << 31, unsigned - (1 << 32), unsigned)
    high = unsigned >> 16
    low = unsigned & 0xFFFF
    high_signed = np.where(high & 0x8000, high - 0x10000, high)
    low_signed = np.where(low & 0x8000, low - 0x10000, low)
    body = np.select(
        [
            (signed >= -8) & (signed <= 7),
            (signed >= -128) & (signed <= 127),
            ((signed >= -32768) & (signed <= 32767)) | (low == 0),
            (high_signed >= -128)
            & (high_signed <= 127)
            & (low_signed >= -128)
            & (low_signed <= 127),
            unsigned == (unsigned & 0xFF) * 0x01010101,
        ],
        [4, 8, 16, 16, 8],
        default=32,
    )
    zero = unsigned == 0
    bits = np.zeros(count, dtype=np.int64)
    run_pos = np.zeros(count, dtype=np.int64)
    for column in range(16):
        is_zero = zero[:, column]
        starts_token = is_zero & (run_pos % 8 == 0)
        bits += np.where(is_zero, np.where(starts_token, 6, 0), 3 + body[:, column])
        run_pos = np.where(is_zero, run_pos + 1, 0)
    sizes = (bits + 7) // 8
    return np.where(sizes >= CACHELINE_BYTES, -1, sizes)
