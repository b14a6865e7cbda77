"""The Fig. 12/13/14 pipeline: figure points, their simulation and tables.

``repro figures`` and the figure benches (``benchmarks/test_fig1*``)
both regenerate their tables here.  A figure's points are
:class:`repro.orchestrator.JobSpec`\\ s keyed by :meth:`JobSpec.key`, the
content-addressed (spec, code) key every sweep uses, so a bench run, a
sweep of the same points and ``repro figures`` all fill and read one
:class:`repro.orchestrator.ResultCache`.  :func:`simulate` runs the
points a cache lacks in one :class:`repro.orchestrator.Orchestrator`
run (warm pool, workload bank), and :func:`build` renders and writes
each table.

Results are deterministic, so "the underlying cached points changed" is
exactly "the key set changed": the one table writer records the digest
of each table's key set in a state file next to the tables, and
:func:`regenerate` rebuilds only the tables whose key set moved since —
after a code edit, a scale change, or a first run.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.charts import bar_chart
from repro.analysis.report import format_table, geometric_mean
from repro.orchestrator import JobSpec, Orchestrator, ResultCache
from repro.sim.runner import ExperimentScale
from repro.sim.simulator import SimulationResult
from repro.workloads.profiles import all_benchmark_names

__all__ = [
    "FIGURES",
    "FigureSpec",
    "FigureStatus",
    "build",
    "figure_point",
    "figure_scale",
    "plan",
    "regenerate",
    "simulate",
]

#: Name of the per-directory freshness state file.
STATE_FILE = ".figures_state.json"

_SEED = 2018
_ALL_SYSTEMS = ("baseline", "metadata_cache", "attache", "ideal")

#: A table's rows: one per workload, then the GEOMEAN row.
Rows = List[list]

#: A figure point by ``(workload, system)``: every figure point runs at
#: the figures' seed with default parameters, so these two name it.
Cell = Tuple[str, str]


def figure_scale(preset: str = "tiny") -> ExperimentScale:
    """The simulation scale behind each figure point.

    These are also the ``REPRO_BENCH_SCALE`` presets of the bench suite
    (``benchmarks/conftest``): same scales produce the same cache keys,
    which is what lets a bench run and ``repro figures`` share cached
    points.
    """
    if preset == "tiny":
        # Keep 8 cores: the bandwidth pressure that drives the paper's
        # results needs the full core count even in smoke runs.
        return ExperimentScale(
            name="tiny", factor=64, cores=8, records_per_core=600,
        )
    if preset == "fast":
        return ExperimentScale(
            name="fast", factor=32, cores=8, records_per_core=2000,
        )
    if preset == "full":
        return ExperimentScale(
            name="full", factor=8, cores=8, records_per_core=8000,
        )
    raise ValueError(f"unknown scale preset: {preset!r}")


def figure_point(workload: str, system: str, scale: ExperimentScale,
                 **parameters) -> JobSpec:
    """One figure point at the figures' seed.

    *parameters* are the ``run_benchmark`` arguments the caller sets and
    nothing else, so a point with defaults keys the same wherever it is
    requested (Fig. 17's baselines are Fig. 12's points).
    """
    return JobSpec(benchmark=workload, system=system, seed=_SEED,
                   scale=scale, parameters=parameters)


@dataclass(frozen=True)
class FigureSpec:
    """One regenerable figure table.

    Attributes:
        name: output stem (``<out_dir>/<name>.txt``).
        title: human-readable description for ``repro figures --list``.
        systems: the systems each workload must be simulated under.
        row: one workload's results by system -> its row's values.
        text: rows -> table text.
    """

    name: str
    title: str
    systems: Tuple[str, ...]
    row: Callable[[Dict[str, SimulationResult]], list]
    text: Callable[[Rows], str]

    def cells(self) -> List[Cell]:
        """The ``(workload, system)`` points this figure consumes,
        workload-major."""
        return [(workload, system) for workload in all_benchmark_names()
                for system in self.systems]

    def points(self, scale: ExperimentScale) -> List[JobSpec]:
        """The points this figure consumes, workload-major."""
        return [figure_point(*cell, scale) for cell in self.cells()]

    def rows(self, results: Dict[Cell, SimulationResult]) -> Rows:
        """One row per workload from *results* (by cell), then the
        GEOMEAN row."""
        rows = [
            [workload] + self.row({
                system: results[workload, system] for system in self.systems
            })
            for workload in all_benchmark_names()
        ]
        columns = list(zip(*rows))[1:]
        return rows + [["GEOMEAN"] + [geometric_mean(c) for c in columns]]


_COMPARED = ("metadata_cache", "attache", "ideal")
_COMPARED_COLUMNS = ["benchmark", "metadata-cache", "attache", "ideal"]


def _speedup_row(run: Dict[str, SimulationResult]) -> list:
    base = run["baseline"].runtime_core_cycles
    return [base / run[system].runtime_core_cycles for system in _COMPARED]


def _speedup_text(rows: Rows) -> str:
    table = format_table(
        _COMPARED_COLUMNS, rows,
        title="Figure 12: Speedup over no-compression baseline",
    )
    return table + "\n\n" + bar_chart(
        [r[0] for r in rows], [r[2] for r in rows],
        title="Attaché speedup (| marks 1.0 = baseline)",
        baseline=1.0, unit="x",
    )


def _energy_row(run: Dict[str, SimulationResult]) -> list:
    base = run["baseline"].energy.total_nj
    return [run[system].energy.total_nj / base for system in _COMPARED]


def _energy_text(rows: Rows) -> str:
    return format_table(
        _COMPARED_COLUMNS, rows,
        title="Figure 13: Memory-system energy vs no-compression baseline",
    )


def _line_throughput(result: SimulationResult) -> float:
    reads = result.memory_requests_by_kind.get("demand_read", 0)
    writes = result.memory_requests_by_kind.get("demand_write", 0)
    return 1000.0 * (reads + writes) / result.runtime_bus_cycles


def _bandwidth_latency_row(run: Dict[str, SimulationResult]) -> list:
    base, attache = run["baseline"], run["attache"]
    return [
        _line_throughput(attache) / _line_throughput(base),
        attache.mean_read_latency_bus_cycles
        / base.mean_read_latency_bus_cycles,
    ]


def _bandwidth_latency_text(rows: Rows) -> str:
    return format_table(
        ["benchmark", "line bandwidth vs baseline",
         "mean read latency vs baseline"],
        rows,
        title="Figure 14: Attaché bandwidth improvement and latency "
              "reduction",
    )


#: Every regenerable table by name, in rendering order.
FIGURES: Dict[str, FigureSpec] = {
    spec.name: spec for spec in (
        FigureSpec("fig12_speedup", "speedup over no-compression baseline",
                   _ALL_SYSTEMS, _speedup_row, _speedup_text),
        FigureSpec("fig13_energy", "memory-system energy vs baseline",
                   _ALL_SYSTEMS, _energy_row, _energy_text),
        FigureSpec("fig14_bandwidth_latency",
                   "bandwidth improvement and latency reduction",
                   ("baseline", "attache"), _bandwidth_latency_row,
                   _bandwidth_latency_text),
    )
}


def simulate(points: Sequence[JobSpec],
             cache: ResultCache) -> Dict[str, SimulationResult]:
    """Every point's result by key, from one orchestrator run.

    Points already in *cache* are read from it; the rest run in the warm
    pool and are stored into it.  Points that share a key run once.
    Raises :class:`RuntimeError` when any point fails.
    """
    return _run({point.key(): point for point in points}, cache)


def _run(points: Dict[str, JobSpec],
         cache: ResultCache) -> Dict[str, SimulationResult]:
    """:func:`simulate` on points already deduplicated by key."""
    report = Orchestrator(jobs="auto", cache=cache).run(list(points.values()))
    if report.failures:
        raise RuntimeError("figure points failed: " + "; ".join(
            f"{outcome.spec.describe()}: {outcome.error}"
            for outcome in report.failures
        ))
    return {outcome.key: outcome.result for outcome in report.outcomes}


def _point_keys(specs: Sequence[FigureSpec],
                scale: ExperimentScale) -> Dict[Cell, str]:
    """The key of every distinct point of *specs*, computed once each:
    the figures share most of their points."""
    cells = dict.fromkeys(cell for spec in specs for cell in spec.cells())
    return {cell: figure_point(*cell, scale).key() for cell in cells}


def _keyset_digest(spec: FigureSpec, keys: Dict[Cell, str]) -> str:
    """Digest of *spec*'s key set, in the figure's point order."""
    return hashlib.sha256("".join(
        keys[cell] for cell in spec.cells()
    ).encode("ascii")).hexdigest()


def _load_state(out_dir: pathlib.Path) -> Dict[str, str]:
    try:
        state = json.loads((out_dir / STATE_FILE).read_text(encoding="utf-8"))
        return {str(k): str(v) for k, v in state.items()}
    except (OSError, ValueError, AttributeError):
        return {}


def build(
    specs: Sequence[FigureSpec],
    cache: ResultCache,
    out_dir: pathlib.Path,
    scale: ExperimentScale,
) -> Dict[str, Rows]:
    """Simulate what *specs* need, then write their tables: the one
    writer of a figure table, which records the table's key-set digest
    in the state file.  Returns each figure's rows by name."""
    keys = _point_keys(specs, scale)
    results = _run(
        {key: figure_point(*cell, scale) for cell, key in keys.items()}, cache
    )
    by_cell = {cell: results[key] for cell, key in keys.items()}
    out_dir.mkdir(parents=True, exist_ok=True)
    state = _load_state(out_dir)
    built = {}
    for spec in specs:
        built[spec.name] = rows = spec.rows(by_cell)
        (out_dir / f"{spec.name}.txt").write_text(
            spec.text(rows) + "\n", encoding="utf-8"
        )
        state[spec.name] = _keyset_digest(spec, keys)
    (out_dir / STATE_FILE).write_text(
        json.dumps(state, indent=2, sort_keys=True) + "\n", encoding="utf-8",
    )
    return built


@dataclass
class FigureStatus:
    """Freshness of one figure against the state file."""

    spec: FigureSpec
    fresh: bool  #: table exists and was rendered from this key set
    cached_points: int  #: points already present in the result cache
    total_points: int


def plan(
    cache: ResultCache,
    out_dir: pathlib.Path,
    scale: ExperimentScale,
    only: Optional[Sequence[str]] = None,
) -> List[FigureStatus]:
    """Freshness of every (selected) figure, without simulating."""
    unknown = set(only or ()) - FIGURES.keys()
    if unknown:
        raise ValueError(
            f"unknown figure(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(FIGURES)})"
        )
    state = _load_state(out_dir)
    specs = [spec for spec in FIGURES.values()
             if not only or spec.name in only]
    keys = _point_keys(specs, scale)
    cached = {cell for cell, key in keys.items() if key in cache}
    return [
        FigureStatus(
            spec=spec,
            fresh=(state.get(spec.name) == _keyset_digest(spec, keys)
                   and (out_dir / f"{spec.name}.txt").exists()),
            cached_points=sum(1 for cell in spec.cells() if cell in cached),
            total_points=len(spec.cells()),
        )
        for spec in specs
    ]


def regenerate(
    cache: ResultCache,
    out_dir: pathlib.Path,
    scale: ExperimentScale,
    only: Optional[Sequence[str]] = None,
    force: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Tuple[FigureStatus, str]]:
    """Regenerate stale figures; returns ``(status, action)`` per figure.

    *action* is ``"fresh"`` (skipped — key set unchanged and the table
    exists), or ``"rebuilt"``.  The points every stale figure lacks run
    in one orchestrator run and land in *cache*.
    """
    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    statuses = plan(cache, out_dir, scale, only=only)
    stale = [status.spec for status in statuses if force or not status.fresh]
    if stale:
        say("simulating the uncached points of "
            + ", ".join(spec.name for spec in stale))
        build(stale, cache, out_dir, scale)
    outcome = []
    for status in statuses:
        if status.spec in stale:
            outcome.append((status, "rebuilt"))
            say(f"{status.spec.name}: rebuilt ({status.total_points} "
                f"points, {status.cached_points} cached)")
        else:
            outcome.append((status, "fresh"))
            say(f"{status.spec.name}: fresh (key set unchanged), skipping")
    return outcome
