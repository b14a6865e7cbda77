"""The fast path's contract: same results, fewer cycles.

Two layers of evidence (see ``repro.fastpath``):

* **Differential tests** pin the size-only classifiers to the full
  codecs over adversarial line content: ``classify`` must agree with
  ``compress`` on feasibility and size, ``materialize`` must rebuild the
  winning payload byte-for-byte, and the fast prefix decoder must match
  the BitReader-based one.  The DRAM channel's cached FR-FCFS selector
  must issue the same commands as the reference selector.
* **Golden runs** require ``SimulationResult.to_dict()`` to be exactly
  equal with the fast path on and off, for every workload profile —
  the end-to-end statement that no cache, memo or scheduler shortcut is
  observable in a result.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import fastpath
from repro.compression.base import DecompressionError
from repro.compression.bdi import BdiCompressor
from repro.compression.engine import CompressionEngine
from repro.compression.fpc import FpcCompressor
from repro.dram import AddressMapper, DramOrganization, DramTiming
from repro.dram.channel import Channel
from repro.dram.config import MemoryAddress
from repro.dram.request import DramRequest, RequestKind
from repro.fastpath.classifiers import (
    bdi_classify,
    bdi_materialize,
    fpc_classify,
    fpc_decode_prefix,
)
from repro.sim.runner import SYSTEMS, ExperimentScale, run_benchmark
from repro.workloads.profiles import PROFILES

# ----------------------------------------------------------------------
# Line-content strategies.  Uniform random bytes almost never compress,
# so the mix below steers generation toward the codecs' decision
# boundaries (zero runs, small signed words, repeated bytes, base+delta
# clusters) while keeping a fully-random arm for the incompressible case.
# ----------------------------------------------------------------------

_WORD = st.one_of(
    st.just(0),
    st.integers(-8, 7).map(lambda v: v & 0xFFFFFFFF),
    st.integers(-128, 127).map(lambda v: v & 0xFFFFFFFF),
    st.integers(-32768, 32767).map(lambda v: v & 0xFFFFFFFF),
    st.integers(0, 0xFFFF).map(lambda v: v << 16),
    st.integers(0, 255).map(lambda b: b * 0x01010101),
    st.integers(0, 0xFFFFFFFF),
)

_FPC_LIKE = st.lists(_WORD, min_size=16, max_size=16).map(
    lambda words: struct.pack("<16I", *words)
)

_UNSIGNED_FMT = {2: "<32H", 4: "<16I", 8: "<8Q"}


@st.composite
def _bdi_like(draw) -> bytes:
    base_size = draw(st.sampled_from([2, 4, 8]))
    bits = 8 * base_size
    count = 64 // base_size
    base = draw(st.integers(0, (1 << bits) - 1))
    spread = draw(st.sampled_from([1 << 3, 1 << 7, 1 << 15]))
    words = [
        (base + draw(st.integers(-spread, spread - 1))) % (1 << bits)
        for _ in range(count)
    ]
    return struct.pack(_UNSIGNED_FMT[base_size], *words)


_LINE = st.one_of(
    st.just(bytes(64)),
    st.binary(min_size=8, max_size=8).map(lambda chunk: chunk * 8),
    _bdi_like(),
    _FPC_LIKE,
    st.binary(min_size=64, max_size=64),
)

_BDI = BdiCompressor()
_FPC = FpcCompressor()

#: Lines whose words straddle the signed boundary of their base width:
#: BDI deltas are fixed-width, so each fits a base-delta encoding.
_WRAPPING_LINES = [
    struct.pack("<8Q", *([(1 << 63) - 100] * 7 + [1 << 63])),
    struct.pack("<16I", *([0x7FFFFFF0] * 8 + [0x80000010] * 8)),
    struct.pack("<32H", *([0x7FF0] * 16 + [0x8010] * 16)),
]


class TestBdiDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_LINE)
    @example(_WRAPPING_LINES[0])
    @example(_WRAPPING_LINES[1])
    @example(_WRAPPING_LINES[2])
    def test_classify_matches_compress(self, data):
        block = _BDI.compress(data)
        classified = bdi_classify(data)
        if block is None:
            assert classified is None
        else:
            size, token = classified
            assert size == block.size
            rebuilt = bdi_materialize(_BDI, data, token)
            assert rebuilt.payload == block.payload
            assert rebuilt.algorithm == block.algorithm

    @settings(max_examples=200, deadline=None)
    @given(_LINE, st.integers(min_value=0, max_value=64))
    def test_limit_never_changes_an_accepted_answer(self, data, limit):
        exact = bdi_classify(data)
        limited = bdi_classify(data, limit)
        if exact is None:
            assert limited is None
        elif exact[0] <= limit:
            assert limited == exact
        else:
            # Above the limit the classifier may skip work (None) but
            # must never fabricate a different size.
            assert limited is None or limited == exact


class TestFpcDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_LINE)
    def test_classify_matches_compress(self, data):
        block = _FPC.compress(data)
        classified = fpc_classify(data)
        if block is None:
            assert classified is None
        else:
            assert classified[0] == block.size

    @settings(max_examples=200, deadline=None)
    @given(_LINE, st.integers(min_value=0, max_value=64))
    def test_limit_never_changes_an_accepted_answer(self, data, limit):
        exact = fpc_classify(data)
        limited = fpc_classify(data, limit)
        if exact is None:
            assert limited is None
        elif exact[0] <= limit:
            assert limited == exact
        else:
            assert limited is None or limited == exact

    @settings(max_examples=300, deadline=None)
    @given(_FPC_LIKE, st.integers(min_value=0, max_value=8))
    def test_decode_prefix_matches_bitreader(self, data, pad):
        block = _FPC.compress(data)
        if block is None:
            return
        padded = block.payload + bytes(pad)
        assert fpc_decode_prefix(padded) == _FPC.decompress_prefix(padded)
        assert fpc_decode_prefix(padded) == data

    @settings(max_examples=100, deadline=None)
    @given(_FPC_LIKE, st.integers(min_value=0, max_value=6))
    def test_decode_prefix_rejects_truncation_like_bitreader(
        self, data, keep
    ):
        block = _FPC.compress(data)
        if block is None or keep >= block.size:
            return
        truncated = block.payload[:keep]
        with pytest.raises((DecompressionError, ValueError)):
            _FPC.decompress_prefix(truncated)
        with pytest.raises((DecompressionError, ValueError)):
            fpc_decode_prefix(truncated)


class TestEngineDifferential:
    """The engine's fast classify/memo layer against a slow-mode twin."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_LINE, min_size=1, max_size=6))
    def test_both_modes_agree_line_by_line(self, lines):
        with fastpath.overridden(True):
            fast = CompressionEngine()
        with fastpath.overridden(False):
            slow = CompressionEngine()
        # Repeat the list so the fast engine's content memo gets hits.
        for data in lines + lines:
            assert fast.is_compressible(data) == slow.is_compressible(data)
            assert fast.compressed_size(data) == slow.compressed_size(data)
            fast_block = fast.compress(data)
            slow_block = slow.compress(data)
            if slow_block is None:
                assert fast_block is None
            else:
                assert fast_block.algorithm == slow_block.algorithm
                assert fast_block.payload == slow_block.payload


# ----------------------------------------------------------------------
# Channel differential: the cached FR-FCFS selector against the
# reference one, on raw request streams.
# ----------------------------------------------------------------------

#: (sub-rank mask, data beats) of the transfers controllers issue: a
#: 64-byte line over both sub-ranks, a 32-byte half on one sub-rank, and
#: a 64-byte line on one sub-rank.
_TRANSFERS = [((0, 1), 4), ((0,), 4), ((1,), 4), ((0,), 8), ((1,), 8)]


def _draw_stream(data, org: DramOrganization) -> list:
    """Requests on every rank and bank of one channel, with arrival gaps
    from back-to-back to past the starvation cap."""
    mapper = AddressMapper(org)
    arrival = 0.0
    stream = []
    for _ in range(data.draw(st.integers(5, 80))):
        address = mapper.encode(MemoryAddress(
            channel=0,
            rank=data.draw(st.integers(0, org.ranks_per_channel - 1)),
            bank_group=data.draw(st.integers(0, org.bank_groups - 1)),
            bank=data.draw(st.integers(0, org.banks_per_group - 1)),
            row=data.draw(st.integers(0, 3)),
            column=data.draw(st.integers(0, 7)),
        ))
        stream.append((
            arrival, address, mapper.decode(address),
            data.draw(st.booleans()), data.draw(st.sampled_from(_TRANSFERS)),
        ))
        arrival += data.draw(
            st.sampled_from([0.0, 0.0, 1.0, 5.0, 40.0, 3000.0])
        )
    return stream


def _drive_channel(fast: bool, org: DramOrganization, stream: list) -> tuple:
    """Run *stream* through a fresh channel; id-normalised command log
    and completions."""
    with fastpath.overridden(fast):
        channel = Channel(DramTiming(), org, log_commands=True)
    id_map = {}
    completions = []
    for arrival, address, decoded, write, (mask, beats) in stream:
        completions += channel.advance(arrival)
        request = DramRequest(
            byte_address=address, decoded=decoded, is_write=write,
            subrank_mask=mask, data_beats=beats,
            kind=RequestKind.DEMAND_READ, arrival_cycle=arrival,
        )
        id_map[request.request_id] = len(id_map)
        channel.enqueue(request)
    completions += channel.advance(10_000_000.0)
    # Request ids are process-global; map them to enqueue order so two
    # independently constructed runs are comparable.
    log = [
        (cycle, command, rank, bank,
         id_map[rid] if rid is not None else None)
        for cycle, command, rank, bank, rid in channel.command_log
    ]
    done = [
        (id_map[r.request_id], r.issue_cycle, r.completion_cycle,
         r.row_outcome)
        for r in completions
    ]
    return log, done


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_channel_fast_selector_matches_reference(data):
    for ranks in (1, 2):
        org = DramOrganization(ranks_per_channel=ranks)
        stream = _draw_stream(data, org)
        fast = _drive_channel(True, org, stream)
        assert fast == _drive_channel(False, org, stream)
        assert len(fast[1]) == len(stream)


def _refresh_straddling_stream(org: DramOrganization) -> list:
    """A burst of requests just before each of four refresh deadlines,
    on every rank, so requests are queued when each refresh falls due."""
    mapper = AddressMapper(org)
    t_refi = DramTiming().t_refi
    stream = []
    for deadline in range(1, 5):
        arrival = deadline * t_refi - 40.0
        for i in range(32):
            address = mapper.encode(MemoryAddress(
                channel=0,
                rank=i % org.ranks_per_channel,
                bank_group=(i // 2) % org.bank_groups,
                bank=i % org.banks_per_group,
                row=i % 3,
                column=i % 8,
            ))
            stream.append((
                arrival + (i // 8), address, mapper.decode(address),
                i % 3 == 0, _TRANSFERS[i % len(_TRANSFERS)],
            ))
    return stream


@pytest.mark.parametrize("ranks", [1, 2])
def test_channel_fast_selector_matches_reference_across_refreshes(ranks):
    org = DramOrganization(ranks_per_channel=ranks)
    stream = _refresh_straddling_stream(org)
    fast = _drive_channel(True, org, stream)
    assert fast == _drive_channel(False, org, stream)
    assert len(fast[1]) == len(stream)
    # Requests were queued when each of the first three refreshes fell
    # due, and every rank refreshed at least three times before the
    # last burst was served.
    t_refi = DramTiming().t_refi
    for deadline in (t_refi, 2 * t_refi, 3 * t_refi):
        assert any(
            stream[index][0] <= deadline < completion
            for index, __, completion, ___ in fast[1]
        )
    last_completion = max(completion for __, ___, completion, ____ in fast[1])
    for rank in range(ranks):
        assert sum(
            1 for cycle, command, ref_rank, __, ___ in fast[0]
            if command == "REF" and ref_rank == rank
            and cycle <= last_completion
        ) >= 3


# ----------------------------------------------------------------------
# Golden end-to-end equality: fast path on vs off.
# ----------------------------------------------------------------------

#: Small enough that 18 profiles x 2 modes stay test-suite friendly,
#: large enough to reach steady-state scheduling (write drains, refresh,
#: bank conflicts) in every profile.
_GOLDEN_SCALE = ExperimentScale(
    name="fastpath-golden", factor=64, cores=2, records_per_core=150,
    warmup_per_core=0,
)


def _run_both_modes(workload: str, system: str) -> tuple:
    payloads = []
    for mode in (True, False):
        with fastpath.overridden(mode):
            result = run_benchmark(
                workload, system, scale=_GOLDEN_SCALE, seed=2018
            )
        payloads.append(result.to_dict())
    return payloads[0], payloads[1]


class TestGoldenEquality:
    # ("workload", not "benchmark": pytest-benchmark reserves that name)
    @pytest.mark.parametrize("workload", sorted(PROFILES))
    def test_every_profile_is_bit_identical_on_attache(self, workload):
        fast, slow = _run_both_modes(workload, "attache")
        assert fast == slow

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_every_system_is_bit_identical(self, system):
        fast, slow = _run_both_modes("STREAM", system)
        assert fast == slow

    def test_perf_telemetry_never_enters_the_payload(self):
        with fastpath.overridden(True):
            result = run_benchmark(
                "STREAM", "attache", scale=_GOLDEN_SCALE, seed=2018
            )
        assert result.perf is not None
        assert result.perf["fastpath"] is True
        assert "perf" not in result.to_dict()
        # A result rebuilt from the payload carries no telemetry.
        from repro.sim.simulator import SimulationResult

        rebuilt = SimulationResult.from_dict(result.to_dict())
        assert rebuilt.perf is None
