"""Memory-controller front-ends for the four evaluated systems.

* :class:`BaselineController` — no compression, no sub-ranking; every
  access moves 64 bytes over the full bus (the paper's baseline).
* :class:`IdealController` — compression + sub-ranking with *free*
  metadata: the controller magically knows each line's stored state
  (the "ideal" bars of Figs. 12/13).
* :class:`MetadataCacheController` — compression + sub-ranking with a
  metadata cache; misses serialise an install read before the data read
  and dirty evictions add writes (the prior-art system).
* :class:`AttacheController` — the paper's contribution: BLEM embeds the
  metadata in the line, COPR predicts the sub-rank(s) to open, and
  mispredictions trigger corrective reads instead of metadata traffic.

Every controller performs the *functional* encode/decode eagerly (with
end-to-end data-integrity verification against the workload's data
model) and issues DRAM requests for the *timing* of each transfer.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import fastpath
from repro.compression import CompressionEngine
from repro.core.blem import BlemConfig, BlemEngine, StoredLine
from repro.core.copr import CoprConfig, CoprPredictor
from repro.core.metadata_cache import MetadataCache
from repro.core.replacement_area import ReplacementArea
from repro.dram.memory_system import MainMemory
from repro.dram.request import RequestKind
from repro.obs import Observability
from repro.obs.metrics import NULL_REGISTRY
from repro.scramble import DataScrambler
from repro.util.bitops import CACHELINE_BYTES

#: Reserved regions (outside any workload footprint, inside 16 GB).
DEFAULT_METADATA_BASE = 14 * 1024**3
DEFAULT_RA_BASE = 15 * 1024**3

DoneCallback = Callable[[float], None]


@dataclass
class ControllerStats:
    """Traffic and latency accounting common to all controllers."""

    demand_reads: int = 0
    demand_writes: int = 0
    corrective_reads: int = 0
    metadata_reads: int = 0
    metadata_writes: int = 0
    ra_reads: int = 0
    ra_writes: int = 0
    read_latency_sum: float = 0.0  #: bus cycles, arrival -> all data home
    lines_stored_compressed: int = 0
    lines_stored_uncompressed: int = 0

    @property
    def mean_read_latency(self) -> float:
        if self.demand_reads == 0:
            return 0.0
        return self.read_latency_sum / self.demand_reads

    @property
    def total_requests(self) -> int:
        return (
            self.demand_reads + self.demand_writes + self.corrective_reads
            + self.metadata_reads + self.metadata_writes
            + self.ra_reads + self.ra_writes
        )

    @property
    def extra_requests(self) -> int:
        """Requests beyond demand traffic (metadata/RA/corrective)."""
        return self.total_requests - self.demand_reads - self.demand_writes


class MemoryController(abc.ABC):
    """Common plumbing: line alignment, request helpers, statistics."""

    name = "abstract"

    def __init__(
        self,
        memory: MainMemory,
        data_model,
        verify_data: bool = True,
        obs: Optional[Observability] = None,
    ) -> None:
        self._memory = memory
        self._data_model = data_model
        self._verify = verify_data
        self._org = memory.config.organization
        self._predictor_delay = memory.config.core_to_bus(
            memory.config.predictor_latency_cycles
        )
        # Observability is null by default: the registry hands out no-op
        # instruments and the tracer is None, so the hot-path hooks cost
        # one attribute check each.
        registry = obs.registry if obs is not None else NULL_REGISTRY
        self._tracer = obs.tracer if obs is not None else None
        self._read_latency_hist = registry.histogram(
            "controller.read_latency_bus_cycles"
        )
        self.stats = ControllerStats()

    @property
    def memory(self) -> MainMemory:
        return self._memory

    @staticmethod
    def _align(address: int) -> int:
        return address - address % CACHELINE_BYTES

    def _line_of(self, address: int) -> int:
        return self._align(address) // CACHELINE_BYTES

    def _primary_subrank(self, address: int) -> int:
        """Sub-rank holding a compressed line / the Metadata-Header."""
        decoded = self._memory.mapper.decode(
            address - address % CACHELINE_BYTES
        )
        return self._org.subrank_of_location(
            decoded.row, decoded.bank_group, decoded.bank
        )

    def _note_read_done(self, arrival: float, done: float) -> None:
        self.stats.read_latency_sum += done - arrival
        self._read_latency_hist.observe(done - arrival)

    # ------------------------------------------------------------------
    # Interface used by the simulator
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def read_line(
        self,
        address: int,
        cycle: float,
        on_done: DoneCallback,
        trace_id: Optional[int] = None,
    ) -> None:
        """Fetch a 64-byte line (LLC miss / RFO); call back when all data
        needed to return the line has arrived.  *trace_id* identifies a
        tracer-sampled lifecycle (``None`` = untraced)."""

    @abc.abstractmethod
    def write_line(self, address: int, cycle: float) -> None:
        """Write back a dirty 64-byte line (fire-and-forget)."""

    def warm_read(self, address: int) -> None:
        """Functional warm-up read: train state, issue no DRAM traffic."""

    def warm_write(self, address: int) -> None:
        """Functional warm-up write-back: train state, no DRAM traffic."""

    def reset_stats(self) -> None:
        """Zero the statistics (called after the warm-up phase)."""
        self.stats = ControllerStats()


class BaselineController(MemoryController):
    """No compression: every access is a full 64-byte transfer."""

    name = "baseline"

    def read_line(
        self,
        address: int,
        cycle: float,
        on_done: DoneCallback,
        trace_id: Optional[int] = None,
    ) -> None:
        address = self._align(address)
        self.stats.demand_reads += 1

        def finish(done: float) -> None:
            self._note_read_done(cycle, done)
            on_done(done)

        self._memory.issue(
            address, False, CACHELINE_BYTES, None,
            RequestKind.DEMAND_READ, cycle, finish, trace_id=trace_id,
        )

    def write_line(self, address: int, cycle: float) -> None:
        address = self._align(address)
        self.stats.demand_writes += 1
        self._memory.issue(
            address, True, CACHELINE_BYTES, None,
            RequestKind.DEMAND_WRITE, cycle,
        )


class _CompressedStoreMixin:
    """Tracks the stored state of every line for compressing controllers."""

    def _init_store(self, engine: CompressionEngine) -> None:
        self._engine = engine
        self._stored_compressed: Dict[int, bool] = {}
        self._version_written: Dict[int, int] = {}

    def _line_compressible(self, line: int, version: Optional[int] = None) -> bool:
        """Whether the line's content compresses to the sub-rank target.

        Uses the data model's verified compressibility class when
        available: generated content is checked against the real BDI/FPC
        engine at generation time, so the class *is* the compression
        outcome — skipping redundant re-compression keeps the simulator
        fast.  Falls back to actually compressing for plain models.
        """
        if hasattr(self._data_model, "line_class"):
            return self._data_model.line_class(line, version)
        content = self._data_model.line_data(line, version)
        return self._engine.is_compressible(content)

    def _stored_state(self, line: int) -> bool:
        """Is the line currently stored compressed?  Lazily initialises
        never-written lines from their boot-time content."""
        state = self._stored_compressed.get(line)
        if state is None:
            state = self._line_compressible(line, 0)
            self._stored_compressed[line] = state
            self._version_written.setdefault(line, 0)
        return state

    def _record_write(self, line: int, compressed: bool) -> None:
        self._stored_compressed[line] = compressed
        self._version_written[line] = self._data_model.version_of(line)
        if compressed:
            self.stats.lines_stored_compressed += 1
        else:
            self.stats.lines_stored_uncompressed += 1

    def _written_content(self, line: int) -> bytes:
        """Content of the line as of its last write-back (or boot)."""
        return self._data_model.line_data(
            line, version=self._version_written.get(line, 0)
        )


class IdealController(MemoryController, _CompressedStoreMixin):
    """Compression + sub-ranking with oracle (zero-cost) metadata."""

    name = "ideal"

    def __init__(
        self,
        memory: MainMemory,
        data_model,
        engine: Optional[CompressionEngine] = None,
        verify_data: bool = True,
        obs: Optional[Observability] = None,
    ) -> None:
        super().__init__(memory, data_model, verify_data, obs=obs)
        self._init_store(engine if engine is not None else CompressionEngine())

    def read_line(
        self,
        address: int,
        cycle: float,
        on_done: DoneCallback,
        trace_id: Optional[int] = None,
    ) -> None:
        address = self._align(address)
        line = self._line_of(address)
        self.stats.demand_reads += 1
        compressed = self._stored_state(line)

        def finish(done: float) -> None:
            self._note_read_done(cycle, done)
            on_done(done)

        if compressed:
            mask: Optional[Tuple[int, ...]] = (self._primary_subrank(address),)
            size = CACHELINE_BYTES // 2
        else:
            mask = None
            size = CACHELINE_BYTES
        self._memory.issue(
            address, False, size, mask, RequestKind.DEMAND_READ, cycle, finish,
            trace_id=trace_id,
        )

    def write_line(self, address: int, cycle: float) -> None:
        address = self._align(address)
        line = self._line_of(address)
        self.stats.demand_writes += 1
        compressed = self._line_compressible(line)
        self._record_write(line, compressed)
        if compressed:
            mask: Optional[Tuple[int, ...]] = (self._primary_subrank(address),)
            size = CACHELINE_BYTES // 2
        else:
            mask = None
            size = CACHELINE_BYTES
        self._memory.issue(
            address, True, size, mask, RequestKind.DEMAND_WRITE, cycle
        )

    def warm_read(self, address: int) -> None:
        self._stored_state(self._line_of(self._align(address)))

    def warm_write(self, address: int) -> None:
        line = self._line_of(self._align(address))
        self._stored_compressed[line] = self._line_compressible(line)
        self._version_written[line] = self._data_model.version_of(line)


class MetadataCacheController(MemoryController, _CompressedStoreMixin):
    """Compression + sub-ranking with a conventional metadata cache."""

    name = "metadata_cache"

    def __init__(
        self,
        memory: MainMemory,
        data_model,
        metadata_cache: Optional[MetadataCache] = None,
        engine: Optional[CompressionEngine] = None,
        verify_data: bool = True,
        obs: Optional[Observability] = None,
    ) -> None:
        super().__init__(memory, data_model, verify_data, obs=obs)
        self._init_store(engine if engine is not None else CompressionEngine())
        self.metadata_cache = (
            metadata_cache
            if metadata_cache is not None
            else MetadataCache(metadata_base=DEFAULT_METADATA_BASE)
        )

    def _metadata_traffic(
        self, line: int, cycle: float, make_dirty: bool
    ) -> Tuple[bool, Optional[Callable[[DoneCallback], None]]]:
        """Probe the metadata cache; issue install/evict traffic.

        Returns ``(hit, wait_for_install)``; when the probe missed,
        ``wait_for_install`` registers a callback for the install read's
        completion (the data access must wait for the metadata).
        """
        result = self.metadata_cache.access(line, make_dirty=make_dirty)
        if result.evict_address is not None:
            self.stats.metadata_writes += 1
            self._memory.issue(
                result.evict_address, True, CACHELINE_BYTES, None,
                RequestKind.METADATA_WRITE, cycle,
            )
        if result.hit:
            return True, None
        self.stats.metadata_reads += 1
        waiters: List[DoneCallback] = []
        state = {"done_at": None}

        def on_install_done(done: float) -> None:
            state["done_at"] = done
            for waiter in waiters:
                waiter(done)

        self._memory.issue(
            result.install_address, False, CACHELINE_BYTES, None,
            RequestKind.METADATA_READ, cycle, on_install_done,
        )

        def wait(callback: DoneCallback) -> None:
            if state["done_at"] is not None:
                callback(state["done_at"])
            else:
                waiters.append(callback)

        return False, wait

    def read_line(
        self,
        address: int,
        cycle: float,
        on_done: DoneCallback,
        trace_id: Optional[int] = None,
    ) -> None:
        address = self._align(address)
        line = self._line_of(address)
        self.stats.demand_reads += 1
        compressed = self._stored_state(line)
        lookup_done = cycle + self._predictor_delay
        hit, wait_for_install = self._metadata_traffic(line, lookup_done, False)
        tracer = self._tracer if trace_id is not None else None
        if tracer is not None:
            tracer.instant(trace_id, "metadata_lookup", lookup_done,
                           hit=hit, compressed=compressed)

        if compressed:
            mask: Optional[Tuple[int, ...]] = (self._primary_subrank(address),)
            size = CACHELINE_BYTES // 2
        else:
            mask = None
            size = CACHELINE_BYTES

        def finish(done: float) -> None:
            self._note_read_done(cycle, done)
            if tracer is not None:
                tracer.instant(trace_id, "complete", done)
            on_done(done)

        def issue_data(start: float) -> None:
            self._memory.issue(
                address, False, size, mask, RequestKind.DEMAND_READ,
                start, finish, trace_id=trace_id,
            )

        if hit:
            issue_data(lookup_done)
        else:
            wait_for_install(issue_data)

    def write_line(self, address: int, cycle: float) -> None:
        address = self._align(address)
        line = self._line_of(address)
        self.stats.demand_writes += 1
        compressed = self._line_compressible(line)
        self._record_write(line, compressed)
        self._metadata_traffic(line, cycle, make_dirty=True)
        if compressed:
            mask: Optional[Tuple[int, ...]] = (self._primary_subrank(address),)
            size = CACHELINE_BYTES // 2
        else:
            mask = None
            size = CACHELINE_BYTES
        self._memory.issue(
            address, True, size, mask, RequestKind.DEMAND_WRITE, cycle
        )

    def warm_read(self, address: int) -> None:
        line = self._line_of(self._align(address))
        self._stored_state(line)
        self.metadata_cache.access(line, make_dirty=False)

    def warm_write(self, address: int) -> None:
        line = self._line_of(self._align(address))
        self._stored_compressed[line] = self._line_compressible(line)
        self._version_written[line] = self._data_model.version_of(line)
        self.metadata_cache.access(line, make_dirty=True)

    def reset_stats(self) -> None:
        super().reset_stats()
        from repro.core.metadata_cache import MetadataCacheStats

        self.metadata_cache.stats = MetadataCacheStats()


class AttacheController(MemoryController, _CompressedStoreMixin):
    """The Attaché framework: BLEM + COPR on a sub-ranked memory."""

    name = "attache"

    def __init__(
        self,
        memory: MainMemory,
        data_model,
        engine: Optional[CompressionEngine] = None,
        blem_config: BlemConfig = BlemConfig(),
        copr_config: CoprConfig = CoprConfig(),
        scrambler_seed: int = 0x5C4A,
        boot_seed: int = 0xB007,
        ra_base: int = DEFAULT_RA_BASE,
        verify_data: bool = True,
        predictor_memory_bytes: Optional[int] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        super().__init__(memory, data_model, verify_data, obs=obs)
        engine = engine if engine is not None else CompressionEngine()
        self._init_store(engine)
        self.blem = BlemEngine(
            engine, DataScrambler(scrambler_seed), blem_config, boot_seed
        )
        # The Global Indicator partitions the *populated* address span
        # (the paper's 1/8-of-memory regions assume workloads that fill
        # memory; scaled workloads must scale the regions with them).
        self.copr = CoprPredictor(
            predictor_memory_bytes
            if predictor_memory_bytes is not None
            else memory.config.organization.total_bytes,
            copr_config,
        )
        self.replacement_area = ReplacementArea(
            ra_base, memory.config.organization.total_bytes
        )
        self._stored_lines: Dict[int, StoredLine] = {}
        # BLEM's encode and decode are pure functions of their arguments
        # under the BLEM fingerprint, so the fast path memoises both:
        # (address, content, primary) -> (image, spilled bit) and
        # (address, image, spilled bit) -> decoded bytes.  Controllers of
        # one fingerprint may share them (fastpath.share_memos); a hit
        # replays the BlemStats counters the call would have bumped.
        fingerprint = self.blem.fingerprint
        fast = fastpath.enabled()
        self._encodes: Optional[dict] = (
            fastpath.memo("blem.encode", fingerprint) if fast else None
        )
        self._decodes: Optional[dict] = (
            fastpath.memo("blem.decode", fingerprint) if fast else None
        )

    # ------------------------------------------------------------------
    # Functional storage
    # ------------------------------------------------------------------

    def _ensure_stored(self, address: int) -> StoredLine:
        """Stored image of the line, lazily encoding its last-written
        (or boot-time) contents."""
        line = self._line_of(address)
        stored = self._stored_lines.get(line)
        if stored is None:
            version = self._version_written.get(line, 0)
            content = self._data_model.line_data(line, version=version)
            stored = self._encode_and_spill(address, content, at_boot=True)
            self._version_written.setdefault(line, 0)
            self._stored_compressed[line] = stored.is_compressed
        return stored

    def _encode_and_spill(
        self, address: int, content: bytes, at_boot: bool = False
    ) -> StoredLine:
        line = self._line_of(address)
        primary = self._primary_subrank(address)
        encodes = self._encodes
        if encodes is None:
            stored, spilled = self.blem.encode_write(address, content, primary)
        else:
            key = (address, content, primary)
            encoded = encodes.get(key)
            if encoded is None:
                encoded = self.blem.encode_write(address, content, primary)
                if len(encodes) >= fastpath.MEMO_ENTRIES:
                    encodes.clear()
                encodes[key] = encoded
            else:
                self._replay_write_counters(encoded[0])
            stored, spilled = encoded
        self._stored_lines[line] = stored
        if spilled is not None:
            self.replacement_area.write_bit(line, spilled)
        return stored

    def _replay_write_counters(self, stored: StoredLine) -> None:
        """Bump the BlemStats write counters encode_write bumped when it
        produced *stored*."""
        blem_stats = self.blem.stats
        if stored.is_compressed:
            blem_stats.writes_compressed += 1
        else:
            blem_stats.writes_uncompressed += 1
            if stored.collision:
                blem_stats.write_collisions += 1

    def _replay_read_counters(self, stored: StoredLine) -> None:
        """Bump the BlemStats read counters decode_read bumps for
        *stored* (it classifies by the header, which encode_write
        derived from the same flags)."""
        blem_stats = self.blem.stats
        if stored.is_compressed:
            blem_stats.reads_compressed += 1
        elif stored.collision:
            blem_stats.read_collisions += 1
        else:
            blem_stats.reads_uncompressed += 1

    def _decode_and_verify(self, address: int, stored: StoredLine) -> None:
        line = self._line_of(address)
        spilled = (
            self.replacement_area.read_bit(line) if stored.collision else None
        )
        decodes = self._decodes
        if decodes is None:
            decoded = self.blem.decode_read(address, stored, spilled)
        else:
            key = (address, stored, spilled)
            decoded = decodes.get(key)
            if decoded is None:
                decoded = self.blem.decode_read(address, stored, spilled)
                if len(decodes) >= fastpath.MEMO_ENTRIES:
                    decodes.clear()
                decodes[key] = decoded
            else:
                self._replay_read_counters(stored)
        if self._verify:
            expected = self._written_content(line)
            if decoded != expected:
                raise RuntimeError(
                    f"data integrity violation at line {line:#x}: "
                    "BLEM decode does not match written content"
                )

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------

    def read_line(
        self,
        address: int,
        cycle: float,
        on_done: DoneCallback,
        trace_id: Optional[int] = None,
    ) -> None:
        address = self._align(address)
        line = self._line_of(address)
        self.stats.demand_reads += 1
        stored = self._ensure_stored(address)
        actual = stored.is_compressed
        predicted = self.copr.predict(address)
        self._decode_and_verify(address, stored)
        tracer = self._tracer if trace_id is not None else None
        if tracer is not None:
            tracer.instant(
                trace_id, "copr_predict", cycle,
                predicted=predicted, actual=actual,
                source=self.copr.last_source,
            )
        self.copr.update(address, actual, predicted=predicted)

        primary = self._primary_subrank(address)
        start = cycle + self._predictor_delay
        pending = {"count": 0, "latest": start}

        def part_done(done: float) -> None:
            pending["count"] -= 1
            pending["latest"] = max(pending["latest"], done)
            if pending["count"] == 0:
                self._note_read_done(cycle, pending["latest"])
                if tracer is not None:
                    tracer.instant(trace_id, "complete", pending["latest"])
                on_done(pending["latest"])

        def issue(byte_address, is_write, size, mask, kind, at):
            pending["count"] += 1
            self._memory.issue(byte_address, is_write, size, mask, kind, at,
                               part_done, trace_id=trace_id)

        def note_header(done: float) -> None:
            # BLEM's header classifies the line the moment the
            # header-bearing half arrives — no metadata access needed.
            if tracer is not None:
                tracer.instant(
                    trace_id, "blem_header", done,
                    compressed=actual, collision=stored.collision,
                )

        if predicted:
            # Speculatively open only the primary sub-rank (32 B).
            def first_done(done: float) -> None:
                # BLEM's header tells the controller whether the guess
                # was right the moment the first half arrives.
                note_header(done)
                if not actual:
                    self.stats.corrective_reads += 1
                    if tracer is not None:
                        tracer.instant(trace_id, "misprediction_correction",
                                       done)
                    issue(
                        address, False, CACHELINE_BYTES // 2, (1 - primary,),
                        RequestKind.CORRECTIVE_READ, done,
                    )
                    if stored.collision:
                        self._issue_ra_read(line, done, issue)
                part_done(done)

            pending["count"] += 1
            self._memory.issue(
                address, False, CACHELINE_BYTES // 2, (primary,),
                RequestKind.DEMAND_READ, start, first_done,
                trace_id=trace_id,
            )
        else:
            def full_done(done: float) -> None:
                note_header(done)
                if actual is False and stored.collision:
                    self._issue_ra_read(line, done, issue)
                part_done(done)

            pending["count"] += 1
            self._memory.issue(
                address, False, CACHELINE_BYTES, None,
                RequestKind.DEMAND_READ, start, full_done,
                trace_id=trace_id,
            )

    def _issue_ra_read(self, line: int, at: float, issue) -> None:
        self.stats.ra_reads += 1
        issue(
            self.replacement_area.block_address(line), False,
            CACHELINE_BYTES, None, RequestKind.REPLACEMENT_AREA_READ, at,
        )

    def write_line(self, address: int, cycle: float) -> None:
        address = self._align(address)
        line = self._line_of(address)
        self.stats.demand_writes += 1
        content = self._data_model.line_data(line)
        stored = self._encode_and_spill(address, content)
        self._record_write(line, stored.is_compressed)
        self.copr.update(address, stored.is_compressed)

        primary = self._primary_subrank(address)
        if stored.is_compressed:
            self._memory.issue(
                address, True, CACHELINE_BYTES // 2, (primary,),
                RequestKind.DEMAND_WRITE, cycle,
            )
        else:
            self._memory.issue(
                address, True, CACHELINE_BYTES, None,
                RequestKind.DEMAND_WRITE, cycle,
            )
            if stored.collision:
                self.stats.ra_writes += 1
                self._memory.issue(
                    self.replacement_area.block_address(line), True,
                    CACHELINE_BYTES, None,
                    RequestKind.REPLACEMENT_AREA_WRITE, cycle,
                )

    def warm_read(self, address: int) -> None:
        line = self._line_of(self._align(address))
        # Train COPR with the stored compressibility class; the physical
        # image is encoded lazily when a timed read needs the bytes.
        state = self._stored_state(line)
        self.copr.update(self._align(address), state)

    def warm_write(self, address: int) -> None:
        address = self._align(address)
        line = self._line_of(address)
        compressed = self._line_compressible(line)
        self._stored_compressed[line] = compressed
        self._version_written[line] = self._data_model.version_of(line)
        self._stored_lines.pop(line, None)  # image is stale, re-encode lazily
        self.copr.update(address, compressed)

    def reset_stats(self) -> None:
        super().reset_stats()
        from repro.core.blem import BlemStats
        from repro.core.copr import CoprStats

        self.copr.stats = CoprStats()
        self.blem.stats = BlemStats()
