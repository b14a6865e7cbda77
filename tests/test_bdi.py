"""Unit tests for the BDI compressor."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.compression import BdiCompressor, DecompressionError
from repro.util.bitops import CACHELINE_BYTES


@pytest.fixture
def bdi():
    return BdiCompressor()


def line_of_u64(values):
    """Build a 64-byte line from eight 64-bit little-endian values."""
    assert len(values) == 8
    return b"".join(v.to_bytes(8, "little") for v in values)


def line_of_u32(values):
    assert len(values) == 16
    return b"".join(v.to_bytes(4, "little") for v in values)


class TestSpecialCases:
    def test_all_zeros_compresses_to_one_byte(self, bdi):
        block = bdi.compress(bytes(CACHELINE_BYTES))
        assert block is not None
        assert block.size == 1
        assert bdi.decompress(block.payload) == bytes(CACHELINE_BYTES)

    def test_repeated_u64(self, bdi):
        data = line_of_u64([0xDEADBEEFCAFEF00D] * 8)
        block = bdi.compress(data)
        assert block is not None
        assert block.size == 9
        assert bdi.decompress(block.payload) == data


class TestBaseDelta:
    def test_base8_delta1(self, bdi):
        base = 0x1000_0000_0000
        data = line_of_u64([base + d for d in range(8)])
        block = bdi.compress(data)
        assert block is not None
        # config byte + 1 mask byte + 8 base bytes + 8 deltas = 18
        assert block.size == 18
        assert bdi.decompress(block.payload) == data

    def test_base4_delta1(self, bdi):
        base = 0x40000000
        data = line_of_u32([base + (d % 100) for d in range(16)])
        block = bdi.compress(data)
        assert block is not None
        assert block.size <= 30
        assert bdi.decompress(block.payload) == data

    def test_mixed_zero_and_explicit_base(self, bdi):
        # Half the words are near zero, half near a large base: the
        # dual-base scheme must cover both.
        base = 0x7777_0000_0000_0000
        values = [3, base + 1, 7, base + 9, 0, base, 120, base - 5]
        data = line_of_u64(values)
        block = bdi.compress(data)
        assert block is not None
        assert bdi.decompress(block.payload) == data

    def test_negative_deltas(self, bdi):
        base = 0x5000_0000_0000_0000
        data = line_of_u64([base - d for d in range(8)])
        block = bdi.compress(data)
        assert block is not None
        assert bdi.decompress(block.payload) == data

    def test_words_near_unsigned_max_are_small_signed(self, bdi):
        # 0xFFFF...F is -1 signed and should fit the zero base.
        data = line_of_u64([(1 << 64) - 1 - d for d in range(8)])
        block = bdi.compress(data)
        assert block is not None
        assert bdi.decompress(block.payload) == data


class TestIncompressible:
    def test_high_entropy_line_fails(self, bdi):
        # Built so that no BDI configuration finds small deltas.
        import hashlib

        data = b"".join(
            hashlib.sha256(bytes([i])).digest()[:8] for i in range(8)
        )
        assert bdi.compress(data) is None

    def test_rejects_wrong_line_size(self, bdi):
        with pytest.raises(ValueError):
            bdi.compress(bytes(32))


class TestDecompressErrors:
    def test_empty_payload(self, bdi):
        with pytest.raises(DecompressionError):
            bdi.decompress(b"")

    def test_unknown_config(self, bdi):
        with pytest.raises(DecompressionError):
            bdi.decompress(bytes([250]))

    def test_truncated_base_delta(self, bdi):
        with pytest.raises(DecompressionError):
            bdi.decompress(bytes([2, 0, 0]))

    def test_malformed_zeros(self, bdi):
        with pytest.raises(DecompressionError):
            bdi.decompress(bytes([0, 1]))

    def test_malformed_repeat(self, bdi):
        with pytest.raises(DecompressionError):
            bdi.decompress(bytes([1, 2, 3]))


class TestRoundTripProperties:
    @given(
        base=st.integers(min_value=0, max_value=(1 << 64) - 1),
        deltas=st.lists(
            st.integers(min_value=-100, max_value=100), min_size=8, max_size=8
        ),
    )
    # Straddles the signed boundary: only fixed-width deltas fit.
    @example(base=(1 << 63) - 100, deltas=[0, 0, 0, 0, 0, 0, 0, 100])
    def test_low_dynamic_range_lines_roundtrip(self, base, deltas):
        bdi = BdiCompressor()
        values = [(base + d) % (1 << 64) for d in deltas]
        data = line_of_u64(values)
        block = bdi.compress(data)
        assert block is not None
        assert bdi.decompress(block.payload) == data

    @given(st.binary(min_size=CACHELINE_BYTES, max_size=CACHELINE_BYTES))
    def test_any_compressed_line_roundtrips(self, data):
        bdi = BdiCompressor()
        block = bdi.compress(data)
        if block is not None:
            assert bdi.decompress(block.payload) == data
            assert block.size < CACHELINE_BYTES
