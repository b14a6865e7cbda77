"""The full-system event loop.

Couples the trace-driven cores, the shared LLC, a memory-controller
front-end and the cycle-level DRAM model.  All timing inside the loop is
in *memory-bus cycles*; core-visible numbers convert at the clock ratio.

Event structure per iteration: the earliest of (a) a core issuing its
next memory instruction, (b) a known DRAM completion being delivered.
The DRAM channels are advanced to the chosen horizon first, because
advancing can schedule completions *earlier* than the horizon.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro import fastpath
from repro.core.controllers import MemoryController
from repro.cpu.cache import LastLevelCache
from repro.cpu.core import Core
from repro.cpu.trace import MemOp
from repro.dram.config import SystemConfig
from repro.energy import EnergyModel, EnergyReport
from repro.obs import Observability, ObsRecord, TimeSeriesSampler
from repro.workloads.tracegen import WorkloadInstance

_INF = float("inf")

#: Version of the ``SimulationResult.to_dict`` payload.  Bump whenever a
#: field is added/removed/retyped; cached results from other versions are
#: rejected by :meth:`SimulationResult.from_dict` (and therefore treated
#: as cache misses by the orchestrator's result cache).
RESULT_SCHEMA_VERSION = 1

#: Schema version emitted when the payload carries an ``obs`` record.
#: Observability-off payloads keep ``RESULT_SCHEMA_VERSION`` so they stay
#: byte-identical across this feature (goldens, caches, the perf bench);
#: obs-on payloads declare the extended schema and are only readable by
#: versions that know the ``obs`` key.
RESULT_SCHEMA_VERSION_OBS = 2


@dataclass
class SimulationResult:
    """Everything a benchmark needs from one simulated run."""

    system: str
    workload: str
    runtime_core_cycles: float
    runtime_bus_cycles: float
    instructions: int
    llc_misses: int
    llc_accesses: int
    memory_requests_by_kind: dict
    forwarded_reads: int
    bytes_transferred: int
    mean_read_latency_bus_cycles: float
    energy: EnergyReport
    row_buffer_outcomes: dict
    copr_accuracy: Optional[float] = None
    metadata_hit_rate: Optional[float] = None
    collision_rate: Optional[float] = None
    #: Per-epoch time series + sampled trace events, present only when
    #: the run was observed (``Simulator(obs=...)``).
    obs: Optional[ObsRecord] = None

    #: Fast-path telemetry (cache hit rates, scheduler counters) attached
    #: by ``Simulator._collect``.  Deliberately an *unannotated* class
    #: attribute rather than a dataclass field: it must never enter
    #: ``to_dict`` (the payload is required to be byte-identical with the
    #: fast path on and off), and results rebuilt by ``from_dict`` carry
    #: no telemetry.
    perf = None

    @property
    def ipc(self) -> float:
        if self.runtime_core_cycles <= 0:
            return 0.0
        return self.instructions / self.runtime_core_cycles

    @property
    def mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.llc_misses / self.instructions

    @property
    def bandwidth_bytes_per_bus_cycle(self) -> float:
        """Achieved memory bandwidth (bytes per memory-bus cycle)."""
        if self.runtime_bus_cycles <= 0:
            return 0.0
        return self.bytes_transferred / self.runtime_bus_cycles

    # -- serialisation --------------------------------------------------
    #
    # Results cross process boundaries (orchestrator workers) and live in
    # on-disk caches, so the round trip must be lossless: every stored
    # field survives ``from_dict(json.loads(json.dumps(to_dict(r))))``
    # bit-identically (finite floats round-trip exactly through JSON).

    def to_dict(self) -> dict:
        """Serialise to a JSON-compatible dict (see RESULT_SCHEMA_VERSION)."""
        payload = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "system": self.system,
            "workload": self.workload,
            "runtime_core_cycles": self.runtime_core_cycles,
            "runtime_bus_cycles": self.runtime_bus_cycles,
            "instructions": self.instructions,
            "llc_misses": self.llc_misses,
            "llc_accesses": self.llc_accesses,
            "memory_requests_by_kind": dict(self.memory_requests_by_kind),
            "forwarded_reads": self.forwarded_reads,
            "bytes_transferred": self.bytes_transferred,
            "mean_read_latency_bus_cycles": self.mean_read_latency_bus_cycles,
            "energy": self.energy.to_dict(),
            "row_buffer_outcomes": dict(self.row_buffer_outcomes),
            "copr_accuracy": self.copr_accuracy,
            "metadata_hit_rate": self.metadata_hit_rate,
            "collision_rate": self.collision_rate,
        }
        if self.obs is not None:
            payload["schema_version"] = RESULT_SCHEMA_VERSION_OBS
            payload["obs"] = self.obs.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SimulationResult":
        """Rebuild a result serialised by :meth:`to_dict`.

        Raises :class:`ValueError` on a schema-version mismatch so stale
        cache entries surface as misses, never as silently-wrong data.
        """
        version = payload.get("schema_version")
        if version not in (RESULT_SCHEMA_VERSION, RESULT_SCHEMA_VERSION_OBS):
            raise ValueError(
                f"SimulationResult schema mismatch: payload version "
                f"{version!r}, expected {RESULT_SCHEMA_VERSION} or "
                f"{RESULT_SCHEMA_VERSION_OBS}"
            )
        data = dict(payload)
        data.pop("schema_version")
        data["energy"] = EnergyReport.from_dict(data["energy"])
        obs = data.pop("obs", None)
        if obs is not None:
            data["obs"] = ObsRecord.from_dict(obs)
        return cls(**data)


class Simulator:
    """Drives one workload through one system configuration."""

    def __init__(
        self,
        config: SystemConfig,
        workload: WorkloadInstance,
        controller: MemoryController,
        llc: Optional[LastLevelCache] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self._config = config
        self._workload = workload
        self._controller = controller
        self._memory = controller.memory
        self._llc = llc if llc is not None else LastLevelCache(
            config.llc_bytes, config.llc_ways
        )
        self._obs = obs
        self._tracer = obs.tracer if obs is not None else None
        self._sampler: Optional[TimeSeriesSampler] = (
            TimeSeriesSampler(obs.config.epoch_cycles, self._obs_probe)
            if obs is not None
            else None
        )
        self._cores: List[Core] = [
            Core(
                core_id=i,
                trace=trace,
                issue_width=config.issue_width,
                max_outstanding=config.max_outstanding_misses,
            )
            for i, trace in enumerate(workload.traces)
        ]
        self._completions: List = []  #: heap of (bus_time, seq, callback)
        self._sequence = itertools.count()

    @property
    def llc(self) -> LastLevelCache:
        return self._llc

    @property
    def cores(self) -> List[Core]:
        return self._cores

    # ------------------------------------------------------------------

    def _next_core(self):
        """Earliest (bus_time, core) ready to issue, or (inf, None).

        ``Core.next_issue_time`` is inlined (reaching into the core's
        private fields): this scan runs once per simulator event and the
        per-core call plus its property lookups dominate it.
        """
        best_time, best_core = _INF, None
        core_to_bus = self._config.core_to_bus
        for core in self._cores:
            record = core._next_record
            if record is None or len(core._window) >= core._max_outstanding:
                continue
            bus_time = core_to_bus(core.time + record.gap / core._issue_width)
            if bus_time < best_time:
                best_time, best_core = bus_time, core
        return best_time, best_core

    def _deliver(self, callback: Callable[[float], None], at: float) -> None:
        heapq.heappush(self._completions, (at, next(self._sequence), callback))

    def _drain_memory_to(self, horizon: float) -> bool:
        """Advance channels to *horizon*; queue any new completions.

        Returns True when new completions were scheduled (the caller
        should recompute its event horizon).
        """
        completed = self._memory.advance(horizon)
        for request in completed:
            if request.on_complete is not None:
                self._deliver(request.on_complete, request.completion_cycle)
        return bool(completed)

    def _issue_core_access(self, core: Core, bus_time: float) -> None:
        record = core.issue_next()
        is_store = record.op is MemOp.STORE
        hit, eviction = self._llc.access(record.address, is_write=is_store)
        if is_store:
            self._workload.data_model.note_store(record.address // 64)
        if eviction is not None and eviction.dirty:
            self._controller.write_line(eviction.line_address * 64, bus_time)
        if hit:
            return
        token = core.register_miss()

        def on_done(done_bus: float) -> None:
            core.complete_miss(token, self._config.bus_to_core(done_bus))

        tracer = self._tracer
        trace_id = (
            tracer.sample_request(record.address, bus_time)
            if tracer is not None
            else None
        )
        self._controller.read_line(record.address, bus_time, on_done,
                                   trace_id=trace_id)

    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Run the workload to completion and collect statistics."""
        sampler = self._sampler
        while True:
            core_time, core = self._next_core()
            done_time = self._completions[0][0] if self._completions else _INF
            horizon = min(core_time, done_time)
            if sampler is not None and horizon != _INF:
                sampler.tick(horizon)

            if horizon == _INF:
                # No core events and no known completions.  If DRAM still
                # holds queued requests, let it make progress.
                next_mem = self._memory.next_event_cycle()
                if next_mem is None:
                    if all(c.drained for c in self._cores):
                        break
                    # Cores hold in-flight misses with no queued DRAM work
                    # and no pending completions: impossible unless a
                    # callback chain is broken.
                    raise RuntimeError("simulation deadlock: blocked cores "
                                       "with an idle memory system")
                self._drain_memory_to(next_mem + 1.0)
                continue

            if self._drain_memory_to(horizon):
                continue  # new completions may precede the horizon

            done_time = self._completions[0][0] if self._completions else _INF
            if done_time <= core_time:
                at, __, callback = heapq.heappop(self._completions)
                callback(at)
            else:
                self._issue_core_access(core, core_time)

        self._finish_writes()
        return self._collect()

    def _finish_writes(self) -> None:
        """Drain the write buffers so traffic/energy accounting is whole."""
        self._memory.flush_writes()
        guard = 0
        while self._memory.pending_requests:
            next_mem = self._memory.next_event_cycle()
            if next_mem is None:
                self._memory.flush_writes()
                next_mem = self._memory.next_event_cycle()
                if next_mem is None:
                    break
            self._drain_memory_to(next_mem + 1.0)
            guard += 1
            if guard > 10_000_000:
                raise RuntimeError("write drain did not converge")
        # Deliver any completions that were queued during the drain.
        while self._completions:
            at, __, callback = heapq.heappop(self._completions)
            callback(at)

    # ------------------------------------------------------------------

    def _obs_probe(self):
        """Snapshot for the time-series sampler: (cumulative, instant).

        Cumulative counters come straight off the live stats objects and
        become per-epoch deltas in the record; instant gauges (queue
        depths) are stored raw at the sample point.
        """
        memory = self._memory
        controller = self._controller
        llc = self._llc.stats.snapshot()
        ctrl_stats = controller.stats
        cumulative = {
            "bytes_transferred": float(memory.stats.bytes_transferred),
            "forwarded_reads": float(memory.stats.forwarded_reads),
            "llc_hits": float(llc["hits"]),
            "llc_misses": float(llc["misses"]),
            "demand_reads": float(ctrl_stats.demand_reads),
            "demand_writes": float(ctrl_stats.demand_writes),
            "corrective_reads": float(ctrl_stats.corrective_reads),
        }
        copr = getattr(controller, "copr", None)
        if copr is not None:
            copr_snap = copr.stats.snapshot()
            cumulative["copr_predictions"] = float(copr_snap["predictions"])
            cumulative["copr_correct"] = float(copr_snap["correct"])
        blem = getattr(controller, "blem", None)
        if blem is not None:
            blem_snap = blem.stats.snapshot()
            cumulative["blem_writes"] = float(
                blem_snap["writes_compressed"] + blem_snap["writes_uncompressed"]
            )
            cumulative["blem_collisions"] = float(
                blem_snap["write_collisions"] + blem_snap["read_collisions"]
            )
        metadata_cache = getattr(controller, "metadata_cache", None)
        if metadata_cache is not None:
            cumulative["metadata_accesses"] = float(
                metadata_cache.stats.accesses
            )
            cumulative["metadata_hits"] = float(metadata_cache.stats.hits)
        for index, beats in enumerate(memory.data_beats_by_subrank()):
            cumulative[f"subrank{index}_beats"] = float(beats)
        instant = {}
        for index, channel in enumerate(memory.channels):
            instant[f"channel{index}_queue"] = float(
                channel.pending_reads + channel.pending_writes
            )
        return cumulative, instant

    def _collect_perf(self) -> dict:
        """Aggregate the fast-path cache counters into one payload.

        Pure telemetry: every counter here describes *how* the run was
        computed, never *what* it computed, so it lives outside the
        serialised result (see ``SimulationResult.perf``).
        """
        controller = self._controller
        scheduler = fastpath.SchedulerCounters()
        for channel in self._memory.channels:
            scheduler.merge(channel.perf)
        perf: dict = {
            # The memory system's construction-time snapshot, not the
            # current global: components never mix modes within one run.
            "fastpath": self._memory._fastpath,
            "scheduler": scheduler.to_dict(),
        }
        engine = getattr(controller, "_engine", None)
        if engine is not None:
            perf["full_encodes"] = engine.perf_full_encodes
        blem = getattr(controller, "blem", None)
        if blem is not None:
            perf["keystream"] = blem._scrambler.perf_keystream.to_dict()
        return perf

    def _collect(self) -> SimulationResult:
        config = self._config
        runtime = max(core.completion_time for core in self._cores)
        instructions = sum(core.stats.instructions for core in self._cores)
        controller = self._controller

        copr_accuracy = None
        collision_rate = None
        metadata_hit_rate = None
        if hasattr(controller, "copr"):
            copr_accuracy = controller.copr.stats.accuracy
        if hasattr(controller, "blem"):
            collision_rate = controller.blem.stats.collision_rate
        if hasattr(controller, "metadata_cache"):
            metadata_hit_rate = controller.metadata_cache.stats.hit_rate

        elapsed_bus = config.core_to_bus(runtime)
        energy_model = EnergyModel(
            chips_per_rank=config.organization.chips_per_rank,
            subranks=config.organization.subranks,
            total_ranks=(
                config.organization.channels * config.organization.ranks_per_channel
            ),
            t_rfc_cycles=config.timing.t_rfc,
        )
        energy = energy_model.report(
            activates=self._memory.command_counts().get("ACT", 0),
            read_beats_by_subrank=self._memory.read_beats_by_subrank(),
            write_beats_by_subrank=self._memory.write_beats_by_subrank(),
            bytes_transferred=self._memory.stats.bytes_transferred,
            refreshes=self._memory.total_refreshes(),
            elapsed_cycles=elapsed_bus,
        )
        result = SimulationResult(
            system=controller.name,
            workload=self._workload.name,
            runtime_core_cycles=runtime,
            runtime_bus_cycles=elapsed_bus,
            instructions=instructions,
            llc_misses=self._llc.stats.misses,
            llc_accesses=self._llc.stats.accesses,
            memory_requests_by_kind=dict(self._memory.stats.requests_by_kind),
            forwarded_reads=self._memory.stats.forwarded_reads,
            bytes_transferred=self._memory.stats.bytes_transferred,
            mean_read_latency_bus_cycles=controller.stats.mean_read_latency,
            energy=energy,
            row_buffer_outcomes=self._memory.row_buffer_outcomes(),
            copr_accuracy=copr_accuracy,
            metadata_hit_rate=metadata_hit_rate,
            collision_rate=collision_rate,
        )
        sampler = self._sampler
        if sampler is not None:
            sampler.finalize(elapsed_bus)
            tracer = self._tracer
            result.obs = sampler.record(
                trace_events=(
                    tracer.chrome_trace()["traceEvents"]
                    if tracer is not None
                    else None
                ),
                trace_dropped=tracer.dropped if tracer is not None else 0,
            )
        result.perf = self._collect_perf()
        return result
