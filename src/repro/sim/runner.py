"""Experiment runner: system builders, scaling presets, comparisons.

The paper simulates 40 B warm-up + 4 B instructions per benchmark on
SST/CramSim.  A Python reproduction cannot run billions of instructions,
so experiments run at a reduced *scale*: footprints, LLC and predictor /
metadata-cache capacities shrink together, keeping the ratios that drive
the results (footprint >> metadata-cache reach, footprint >> LLC).  The
``paper`` preset preserves Table II absolute sizes for documentation and
unit checks; benches default to ``fast``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import kernels
from repro.core.blem import BlemConfig
from repro.core.controllers import (
    DEFAULT_METADATA_BASE,
    AttacheController,
    BaselineController,
    IdealController,
    MemoryController,
    MetadataCacheController,
)
from repro.core.copr import CoprConfig
from repro.core.metadata_cache import MetadataCache
from repro.cpu.cache import LastLevelCache
from repro.dram.config import DramOrganization, SystemConfig
from repro.dram.memory_system import MainMemory
from repro.obs import Observability, as_observability
from repro.sim.simulator import SimulationResult, Simulator
from repro.workloads.tracegen import build_workload

SYSTEMS = ("baseline", "metadata_cache", "attache", "ideal")

#: Smallest warm-up window (records summed over cores) that takes the
#: vector warm-up; smaller windows run the scalar loop, which is faster
#: there because the vector path's fixed costs dominate (measured
#: crossover table: docs/PERFORMANCE.md, "The vector timing plane").
VECTOR_WARMUP_MIN_EVENTS = 1024


@dataclass(frozen=True)
class ExperimentScale:
    """Joint scaling of footprints and controller structures.

    ``factor`` divides the paper's capacities; footprints shrink by the
    same factor so cache-to-footprint ratios (which set hit rates and
    predictor coverage) are preserved.
    """

    name: str
    factor: int
    cores: int = 8
    records_per_core: int = 12000
    #: Functional warm-up records per core before the timed window (the
    #: paper warms 40 B instructions before measuring 4 B).  ``None``
    #: defaults to twice the measured window.
    warmup_per_core: Optional[int] = None

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError("factor must be positive")
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.warmup_per_core is not None and self.warmup_per_core < 0:
            raise ValueError("warmup_per_core must be non-negative")

    @property
    def effective_warmup(self) -> int:
        if self.warmup_per_core is None:
            return 2 * self.records_per_core
        return self.warmup_per_core

    @property
    def footprint_scale(self) -> float:
        return 1.0 / self.factor

    @property
    def llc_bytes(self) -> int:
        return max(64 * 1024, (8 * 1024 * 1024) // self.factor)

    @property
    def metadata_cache_bytes(self) -> int:
        return max(16 * 1024, (1024 * 1024) // self.factor)

    @property
    def papr_entries(self) -> int:
        return max(1024, 65536 // self.factor)

    @property
    def lipr_entries(self) -> int:
        return max(256, 16384 // self.factor)

    def copr_config(self, **overrides) -> CoprConfig:
        return CoprConfig(
            papr_entries=self.papr_entries,
            lipr_entries=self.lipr_entries,
            **overrides,
        )

    def to_dict(self) -> dict:
        """JSON-compatible form; crosses worker/cache boundaries losslessly."""
        return {
            "name": self.name,
            "factor": self.factor,
            "cores": self.cores,
            "records_per_core": self.records_per_core,
            "warmup_per_core": self.warmup_per_core,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentScale":
        return cls(
            name=payload["name"],
            factor=payload["factor"],
            cores=payload["cores"],
            records_per_core=payload["records_per_core"],
            warmup_per_core=payload["warmup_per_core"],
        )


#: Paper-fidelity sizes (slow: for spot checks only).
PAPER_SCALE = ExperimentScale(name="paper", factor=1)
#: Default scale: 32x joint reduction, ~10 s per benchmark-system run.
FAST_SCALE = ExperimentScale(name="fast", factor=32, records_per_core=2000)
#: Smoke-test scale for unit/integration tests.
TINY_SCALE = ExperimentScale(name="tiny", factor=64, cores=2, records_per_core=1500)


def make_config(scale: ExperimentScale, subranks: int) -> SystemConfig:
    """Table II system config at the given scale and sub-rank count."""
    return SystemConfig(
        organization=DramOrganization(subranks=subranks),
        cores=scale.cores,
        llc_bytes=scale.llc_bytes,
    )


def build_system(
    system: str,
    scale: ExperimentScale = FAST_SCALE,
    copr_config: Optional[CoprConfig] = None,
    metadata_policy: str = "lru",
    blem_config: BlemConfig = BlemConfig(),
    verify_data: bool = True,
    obs: Optional[Observability] = None,
):
    """Create ``(config, controller_factory)`` for a named system.

    The factory takes a data model and returns a fresh controller bound
    to a fresh :class:`MainMemory`, so runs never share state.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; choose from {SYSTEMS}")
    subranks = 1 if system == "baseline" else 2
    config = make_config(scale, subranks)

    def factory(data_model, predictor_memory_bytes=None) -> MemoryController:
        memory = MainMemory(config, obs=obs)
        if system == "baseline":
            return BaselineController(memory, data_model, verify_data, obs=obs)
        if system == "ideal":
            return IdealController(
                memory, data_model, verify_data=verify_data, obs=obs
            )
        if system == "metadata_cache":
            cache = MetadataCache(
                capacity_bytes=scale.metadata_cache_bytes,
                policy=metadata_policy,
                metadata_base=DEFAULT_METADATA_BASE,
            )
            return MetadataCacheController(
                memory,
                data_model,
                metadata_cache=cache,
                verify_data=verify_data,
                obs=obs,
            )
        return AttacheController(
            memory,
            data_model,
            blem_config=blem_config,
            copr_config=(
                copr_config if copr_config is not None else scale.copr_config()
            ),
            verify_data=verify_data,
            predictor_memory_bytes=predictor_memory_bytes,
            obs=obs,
        )

    return config, factory


@dataclass
class SystemResult:
    """Per-system results of one benchmark, plus derived comparisons."""

    workload: str
    results: Dict[str, SimulationResult] = field(default_factory=dict)

    def speedup(self, system: str, over: str = "baseline") -> float:
        """Runtime ratio (``over`` / ``system``); > 1 means faster."""
        return (
            self.results[over].runtime_core_cycles
            / self.results[system].runtime_core_cycles
        )

    def energy_ratio(self, system: str, over: str = "baseline") -> float:
        """Energy ratio (``system`` / ``over``); < 1 means savings."""
        return (
            self.results[system].energy.total_nj
            / self.results[over].energy.total_nj
        )

    def bandwidth_ratio(self, system: str, over: str = "baseline") -> float:
        return (
            self.results[system].bandwidth_bytes_per_bus_cycle
            / self.results[over].bandwidth_bytes_per_bus_cycle
        )

    def latency_ratio(self, system: str, over: str = "baseline") -> float:
        return (
            self.results[system].mean_read_latency_bus_cycles
            / self.results[over].mean_read_latency_bus_cycles
        )


def run_benchmark(
    benchmark: str,
    system: str,
    scale: ExperimentScale = FAST_SCALE,
    seed: int = 2018,
    copr_config: Optional[CoprConfig] = None,
    metadata_policy: str = "lru",
    blem_config: BlemConfig = BlemConfig(),
    verify_data: bool = True,
    obs=None,
) -> SimulationResult:
    """Simulate one benchmark on one system.

    ``obs`` accepts ``None`` (no observability — the default, and the
    path golden results pin down), an :class:`~repro.obs.ObsConfig`, or
    a ready :class:`~repro.obs.Observability` hub.
    """
    hub = as_observability(obs)
    config, factory = build_system(
        system, scale, copr_config, metadata_policy, blem_config, verify_data,
        obs=hub,
    )
    warmup = scale.effective_warmup
    workload = build_workload(
        benchmark,
        cores=scale.cores,
        records_per_core=scale.records_per_core + warmup,
        seed=seed,
        footprint_scale=scale.footprint_scale,
    )
    controller = factory(workload.data_model, workload.address_span)
    llc = LastLevelCache(config.llc_bytes, config.llc_ways)
    vector = kernels.enabled()
    if warmup:
        warmed = False
        if vector and warmup * scale.cores >= VECTOR_WARMUP_MIN_EVENTS:
            from repro.kernels.timing import warm_up_vector

            warmed = warm_up_vector(workload, llc, controller, warmup)
        if not warmed:
            _warm_up(workload, llc, controller, warmup)
    if vector:
        from repro.kernels.timing import prewarm_timed_phase

        prewarm_timed_phase(
            workload, controller, warmup, scale.records_per_core
        )
    simulator = Simulator(config, workload, controller, llc, obs=hub)
    return simulator.run()


def _warm_up(workload, llc: LastLevelCache, controller, warmup_per_core: int) -> None:
    """Functional warm-up: stream the first records of every core through
    the LLC and the controller's training state, then zero the statistics
    so the timed window starts warm (Section V's cache/memory warm-up).
    """
    from repro.cpu.cache import CacheStats
    from repro.cpu.trace import MemOp

    model = workload.data_model
    for _ in range(warmup_per_core):
        for trace in workload.traces:
            record = next(trace, None)
            if record is None:
                continue
            is_store = record.op is MemOp.STORE
            hit, eviction = llc.access(record.address, is_write=is_store)
            if is_store:
                model.note_store(record.address // 64)
            if eviction is not None and eviction.dirty:
                controller.warm_write(eviction.line_address * 64)
            if not hit:
                controller.warm_read(record.address)
    llc.stats = CacheStats()
    controller.reset_stats()


def run_comparison(
    benchmark: str,
    systems: Optional[List[str]] = None,
    scale: ExperimentScale = FAST_SCALE,
    seed: int = 2018,
    **kwargs,
) -> SystemResult:
    """Simulate one benchmark across several systems (same workload seed)."""
    systems = list(systems) if systems is not None else list(SYSTEMS)
    outcome = SystemResult(workload=benchmark)
    for system in systems:
        outcome.results[system] = run_benchmark(
            benchmark, system, scale=scale, seed=seed, **kwargs
        )
    return outcome
