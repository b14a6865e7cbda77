"""Trace generation: profiles + patterns -> per-core instruction streams."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro import fastpath
from repro.cpu.trace import MemOp, TraceRecord
from repro.util.bitops import CACHELINE_BYTES
from repro.util.rng import DeterministicRng
from repro.workloads.datagen import DataModel
from repro.workloads.profiles import (
    MIX_BENCHMARKS,
    BenchmarkProfile,
    get_profile,
)


class TraceGenerator:
    """Synthesises one core's trace from a benchmark profile."""

    def __init__(
        self,
        profile: BenchmarkProfile,
        region_base: int,
        region_bytes: int,
        seed: int,
    ) -> None:
        self._profile = profile
        self._pattern = profile.make_pattern(region_base, region_bytes, seed)
        self._rng = DeterministicRng(seed ^ 0x7ACE)
        mean = profile.mean_gap
        #: log(p) of the geometric distribution, fixed per profile.  Kept
        #: as the division's denominator (not inverted) so gap values
        #: stay bit-identical to the original per-call formula.
        self._gap_log_p = math.log(mean / (mean + 1.0)) if mean else None

    def _geometric_gap(self) -> int:
        """Draw a gap with mean ``profile.mean_gap`` (geometric)."""
        log_p = self._gap_log_p
        if log_p is None:
            return 0
        u = max(self._rng.next_float(), 1e-12)
        return int(math.log(u) / log_p)

    def records(self, count: Optional[int] = None) -> Iterator[TraceRecord]:
        """Yield *count* trace records (or endless when ``None``)."""
        addresses = self._pattern.addresses()
        produced = 0
        while count is None or produced < count:
            op = (
                MemOp.STORE
                if self._rng.next_float() < self._profile.write_fraction
                else MemOp.LOAD
            )
            yield TraceRecord(
                gap=self._geometric_gap(), op=op, address=next(addresses)
            )
            produced += 1


class CompositeDataModel:
    """Routes data-model queries to per-region models (for mixes).

    Presents the same interface as :class:`DataModel` for the line-level
    operations the simulator uses.
    """

    def __init__(self, regions: Sequence[Tuple[int, int, DataModel]]) -> None:
        if not regions:
            raise ValueError("at least one region is required")
        self._regions = sorted(regions, key=lambda r: r[0])
        for (base_a, size_a, __), (base_b, __, ___) in zip(
            self._regions, self._regions[1:]
        ):
            if base_a + size_a > base_b:
                raise ValueError("data-model regions overlap")
        #: line address -> owning model; the routing scan is linear in
        #: the region count and line addresses repeat constantly.
        self._model_cache: dict = {}

    @property
    def regions(self) -> Sequence[Tuple[int, int, DataModel]]:
        """The ``(base, size, model)`` regions, sorted by base."""
        return tuple(self._regions)

    def _model_for_line(self, line_address: int) -> DataModel:
        model = self._model_cache.get(line_address)
        if model is not None:
            return model
        byte_address = line_address * CACHELINE_BYTES
        for base, size, model in self._regions:
            if base <= byte_address < base + size:
                break
        else:
            # Out-of-region lines (e.g. never-touched metadata space)
            # default to the first model's statistics.
            model = self._regions[0][2]
        if len(self._model_cache) >= fastpath.MEMO_ENTRIES:
            self._model_cache.clear()
        self._model_cache[line_address] = model
        return model

    def line_data(self, line_address: int, version: int = None) -> bytes:
        return self._model_for_line(line_address).line_data(line_address, version)

    def note_store(self, line_address: int) -> None:
        self._model_for_line(line_address).note_store(line_address)

    def version_of(self, line_address: int) -> int:
        return self._model_for_line(line_address).version_of(line_address)

    def line_class(self, line_address: int, version: int = None) -> bool:
        return self._model_for_line(line_address).line_class(line_address, version)


@dataclass
class WorkloadInstance:
    """A fully instantiated multi-core workload.

    Attributes:
        name: benchmark or mix name.
        profiles: per-core benchmark profile (identical in rate mode).
        traces: per-core trace iterators.
        data_model: content source covering every core's region.
        region_bases: per-core region base addresses.
        columns: optional per-core ``(addresses, gaps, ops)`` trace
            columns (numpy arrays or buffer views) backing ``traces`` —
            present when the instance was built through the vector
            kernels or replayed from a bank blob, and consumed by the
            batched functional pipeline.
    """

    name: str
    profiles: List[BenchmarkProfile]
    traces: List[Iterator[TraceRecord]]
    data_model: CompositeDataModel
    region_bases: List[int]
    region_sizes: List[int] = None  # type: ignore[assignment]
    columns: Optional[List[tuple]] = None

    @property
    def cores(self) -> int:
        return len(self.traces)

    @property
    def address_span(self) -> int:
        """Bytes from address 0 to the end of the last region — the
        address range predictors (e.g. the Global Indicator) should
        partition."""
        if not self.region_sizes:
            return max(self.region_bases) + 1 if self.region_bases else 1
        return max(
            base + size
            for base, size in zip(self.region_bases, self.region_sizes)
        )


def _align_up(value: int, alignment: int) -> int:
    return ((value + alignment - 1) // alignment) * alignment


def _stable_name_hash(name: str) -> int:
    """Process-stable 32-bit hash of a benchmark name."""
    import zlib

    return zlib.crc32(name.encode("utf-8"))


def build_workload(
    name: str,
    cores: int = 8,
    records_per_core: int = 20000,
    seed: int = 2018,
    footprint_scale: float = 1.0,
) -> WorkloadInstance:
    """Instantiate a named benchmark (rate mode) or mix workload.

    When a :class:`repro.workloads.bank.WorkloadBank` is installed in
    this process (warm sweep workers), the instance is replayed
    zero-copy from the bank's columnar blob — the same records the
    generator below would produce, materialized once per distinct
    ``(name, cores, records, seed, footprint_scale)`` and shared across
    every job of the sweep.  Without a bank this generates in-process.
    """
    from repro.workloads import bank

    provider = bank.active_bank()
    if provider is not None:
        return provider.workload(
            name=name, cores=cores, records_per_core=records_per_core,
            seed=seed, footprint_scale=footprint_scale,
        )
    return generate_workload(
        name, cores=cores, records_per_core=records_per_core, seed=seed,
        footprint_scale=footprint_scale,
    )


def generate_workload(
    name: str,
    cores: int = 8,
    records_per_core: int = 20000,
    seed: int = 2018,
    footprint_scale: float = 1.0,
) -> WorkloadInstance:
    """Instantiate a workload by direct generation (never via a bank).

    Rate mode (Section V): all cores run the same benchmark in disjoint
    address regions.  Mixes assign ``MIX_BENCHMARKS[name]`` round-robin.
    ``footprint_scale`` shrinks or grows every region — used to keep
    Python runs tractable while preserving footprint >> cache ratios.
    """
    if cores <= 0:
        raise ValueError("cores must be positive")
    if records_per_core <= 0:
        raise ValueError("records_per_core must be positive")
    if footprint_scale <= 0:
        raise ValueError("footprint_scale must be positive")

    profiles = resolve_profiles(name, cores)
    regions = layout_regions(profiles, footprint_scale)

    traces: List[Iterator[TraceRecord]] = []
    columns = None
    from repro import kernels

    if kernels.enabled():
        from repro.kernels.tracegen import workload_columns
        from repro.workloads.bank import replay_records

        columns = workload_columns(profiles, regions, records_per_core, seed)
        for addresses, gaps, ops in columns:
            # memoryviews iterate as plain Python ints, so the replayed
            # records are indistinguishable from the generator's.
            traces.append(replay_records(
                memoryview(addresses), memoryview(gaps), memoryview(ops)
            ))
    else:
        rng = DeterministicRng(seed)
        for core_id, (profile, (base, size)) in enumerate(
            zip(profiles, regions)
        ):
            core_seed = rng.fork(core_id).next_u64()
            generator = TraceGenerator(profile, base, size, core_seed)
            traces.append(generator.records(records_per_core))

    return WorkloadInstance(
        name=name,
        profiles=list(profiles),
        traces=traces,
        data_model=build_data_model(profiles, regions, seed),
        region_bases=[base for base, __ in regions],
        region_sizes=[size for __, size in regions],
        columns=columns,
    )


def resolve_profiles(name: str, cores: int) -> List[BenchmarkProfile]:
    """Per-core profile assignment: rate mode or round-robin mixes."""
    if name in MIX_BENCHMARKS:
        per_core = [get_profile(n) for n in MIX_BENCHMARKS[name]]
        if cores != len(per_core):
            # Round-robin the mix definition over the requested cores.
            per_core = [per_core[i % len(per_core)] for i in range(cores)]
        return per_core
    return [get_profile(name)] * cores


def layout_regions(
    profiles: Sequence[BenchmarkProfile], footprint_scale: float
) -> List[Tuple[int, int]]:
    """Disjoint per-core ``(base, size)`` regions for the given profiles."""
    page_aligned = 1 << 22  # 4 MB region alignment keeps pages disjoint
    regions: List[Tuple[int, int]] = []
    cursor = 0
    for profile in profiles:
        size = _align_up(
            max(4096, int(profile.footprint_bytes * footprint_scale)), 4096
        )
        base = _align_up(cursor, page_aligned)
        regions.append((base, size))
        cursor = base + size
    return regions


def build_data_model(
    profiles: Sequence[BenchmarkProfile],
    regions: Sequence[Tuple[int, int]],
    seed: int,
) -> CompositeDataModel:
    """The composite content model over per-core regions.

    Model seeds derive from ``seed ^ crc32(profile name)``
    (process-stable, unlike ``hash(str)``), so a model rebuilt from a
    bank header is indistinguishable from the generator's.
    """
    models: List[Tuple[int, int, DataModel]] = []
    for profile, (base, size) in zip(profiles, regions):
        name_digest = _stable_name_hash(profile.name)
        model = DataModel(profile.data, seed=seed ^ name_digest)
        models.append((base, size, model))
    return CompositeDataModel(models)
