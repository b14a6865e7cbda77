"""Shared infrastructure for the paper-figure benchmarks.

Every ``benchmarks/test_*.py`` regenerates one table or figure of the
paper.  Each bench prints its table and also writes it to
``benchmarks/out/<name>.txt`` so results survive pytest's capture.

Full-timing figures (12/13/14/17) simulate their points through
:mod:`repro.analysis.figures`, the pipeline behind ``repro figures``:
points are ``JobSpec``\\ s, the ones missing from the session's
``result_cache`` run in one orchestrator run, and Figs. 12-14 render and
write their tables with ``repro figures``' own renderers and writer.
Figs. 13 and 14 reuse Fig. 12's points as cache hits.

Scale: benches default to the ``fast`` preset (capacities and footprints
scaled down 32x together — see DESIGN.md section 6 and
``repro.sim.runner.ExperimentScale``).  Set ``REPRO_BENCH_SCALE=tiny``
for smoke runs or ``REPRO_BENCH_RECORDS`` to change trace length.

Caching: the result cache is the orchestrator's content-addressed
on-disk cache (docs/ORCHESTRATOR.md) in a session temp directory, or in
``REPRO_BENCH_CACHE_DIR`` when that is set.  Repeat ``pytest
benchmarks/`` invocations then reuse every previously simulated point
instead of re-simulating it, which collapses the suite's wall-clock.
Keys include a hash of the ``repro`` sources, so editing the simulator
invalidates stale entries automatically.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
from typing import Dict, List

import pytest

from repro.analysis.figures import FIGURES, build, figure_scale
from repro.orchestrator import ResultCache
from repro.sim.runner import ExperimentScale

OUT_DIR = pathlib.Path(__file__).parent / "out"


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


@pytest.fixture(scope="session")
def result_cache(tmp_path_factory) -> ResultCache:
    """The full-timing benches' result cache: ``REPRO_BENCH_CACHE_DIR``
    when set, else a directory that lives for the session."""
    cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR")
    return ResultCache(cache_dir or tmp_path_factory.mktemp("results"))


@pytest.fixture(scope="session")
def report_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def figure_rows(name: str, result_cache: ResultCache,
                report_dir: pathlib.Path) -> List[list]:
    """Regenerate the ``repro figures`` table *name* at the bench scale
    and print it; returns its rows, the GEOMEAN row last."""
    rows = build([FIGURES[name]], result_cache, report_dir,
                 bench_scale())[name]
    print()
    print((report_dir / f"{name}.txt").read_text(encoding="utf-8"), end="")
    return rows


def publish(report_dir: pathlib.Path, name: str, table: str) -> None:
    """Print a result table and persist it under benchmarks/out/."""
    print()
    print(table)
    (report_dir / f"{name}.txt").write_text(table + "\n", encoding="utf-8")
