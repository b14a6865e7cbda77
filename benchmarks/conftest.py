"""Shared infrastructure for the paper-figure benchmarks.

Every ``benchmarks/test_*.py`` regenerates one table or figure of the
paper.  Full-timing figures (12/13/14/17) share one sweep of simulation
results through the session-scoped ``results_cache`` so the expensive
runs happen once.  Each bench prints its table and also writes it to
``benchmarks/out/<name>.txt`` so results survive pytest's capture.

Scale: benches default to the ``fast`` preset (capacities and footprints
scaled down 32x together — see DESIGN.md section 6 and
``repro.sim.runner.ExperimentScale``).  Set ``REPRO_BENCH_SCALE=tiny``
for smoke runs or ``REPRO_BENCH_RECORDS`` to change trace length.

Caching: set ``REPRO_BENCH_CACHE_DIR=<dir>`` to back the in-memory
results cache with the orchestrator's content-addressed on-disk cache
(docs/ORCHESTRATOR.md).  Repeat ``pytest benchmarks/`` invocations then
reuse every previously simulated (workload, system, config, seed) point
instead of re-simulating it, which collapses the suite's wall-clock.
Keys include a hash of the ``repro`` sources, so editing the simulator
invalidates stale entries automatically.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
from typing import Dict, List, Optional

import pytest

from repro.analysis.figures import figure_scale, point_key
from repro.core.blem import BlemConfig
from repro.core.copr import CoprConfig
from repro.orchestrator import ResultCache
from repro.sim.runner import ExperimentScale, run_benchmark
from repro.sim.simulator import SimulationResult
from repro.workloads.profiles import all_benchmark_names

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: Figure order for per-benchmark tables.
ALL_WORKLOADS = all_benchmark_names()
TIMING_SYSTEMS = ("baseline", "metadata_cache", "attache", "ideal")


def bench_scale() -> ExperimentScale:
    """The simulation scale used by the timing benches: the
    ``REPRO_BENCH_SCALE`` preset of ``repro figures`` (an unknown name
    raises ``ValueError``), with its trace length replaced by
    ``REPRO_BENCH_RECORDS`` when that is set."""
    scale = figure_scale(os.environ.get("REPRO_BENCH_SCALE", "fast"))
    records = int(os.environ.get("REPRO_BENCH_RECORDS", "0"))
    if records:
        scale = dataclasses.replace(scale, records_per_core=records)
    return scale


def functional_workload_kwargs() -> Dict[str, object]:
    """Workload sizing for the functional (timing-free) benches."""
    scale = bench_scale()
    return dict(
        cores=scale.cores,
        records_per_core=max(4 * scale.records_per_core, 6000),
        seed=2018,
        footprint_scale=scale.footprint_scale,
        llc_bytes=scale.llc_bytes,
    )


class ResultsCache:
    """Memoises full-timing simulation results across bench modules.

    Always memoises in memory; when ``REPRO_BENCH_CACHE_DIR`` is set it
    also reads/writes the orchestrator's content-addressed on-disk cache
    so results survive across pytest sessions and CI runs.
    """

    def __init__(self) -> None:
        self._results: Dict[tuple, SimulationResult] = {}
        cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR")
        self._disk = ResultCache(cache_dir) if cache_dir else None

    def get(
        self,
        workload: str,
        system: str,
        copr_config: Optional[CoprConfig] = None,
        blem_config: BlemConfig = BlemConfig(),
        seed: int = 2018,
    ) -> SimulationResult:
        key = (workload, system, copr_config, blem_config, seed,
               bench_scale().name, bench_scale().records_per_core)
        if key not in self._results:
            self._results[key] = self._simulate_or_load(key)
        return self._results[key]

    def _simulate_or_load(self, key: tuple) -> SimulationResult:
        workload, system, copr_config, blem_config, seed = key[:5]
        disk_key = None
        if self._disk is not None:
            disk_key = point_key(
                workload, system, bench_scale(), copr_config=copr_config,
                blem_config=blem_config, seed=seed,
            )
            cached = self._disk.get(disk_key)
            if cached is not None:
                return cached
        result = run_benchmark(
            workload, system, scale=bench_scale(), seed=seed,
            copr_config=copr_config, blem_config=blem_config,
        )
        if self._disk is not None:
            self._disk.put(disk_key, result,
                           meta={"workload": workload, "system": system})
        return result

    def sweep(
        self,
        workloads: List[str],
        systems: List[str],
        **kwargs,
    ) -> Dict[str, Dict[str, SimulationResult]]:
        """results[workload][system] for the full cross product."""
        return {
            workload: {
                system: self.get(workload, system, **kwargs)
                for system in systems
            }
            for workload in workloads
        }


@pytest.fixture(scope="session")
def results_cache() -> ResultsCache:
    return ResultsCache()


@pytest.fixture(scope="session")
def report_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def publish(report_dir: pathlib.Path, name: str, table: str) -> None:
    """Print a result table and persist it under benchmarks/out/."""
    print()
    print(table)
    (report_dir / f"{name}.txt").write_text(table + "\n", encoding="utf-8")
