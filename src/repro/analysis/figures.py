"""Incremental figure regeneration over the shared result cache.

``pytest benchmarks/`` regenerates every figure table unconditionally.
This module is the ROADMAP's "incremental figure regeneration" item: it
knows which simulation points each figure table consumes, keys them with
the orchestrator's content-addressed scheme
(:func:`repro.orchestrator.stable_key` over the job spec plus
:func:`repro.orchestrator.code_fingerprint`), and regenerates only the
tables whose point-key set changed since the table was last written —
i.e. after a code edit, a scale change, or a first run.  Simulated
points land in the same on-disk :class:`repro.orchestrator.ResultCache`
layout the benches use (``REPRO_BENCH_CACHE_DIR``), so a bench run warms
``repro figures`` and vice versa.

Keys are content-addressed by (spec, code): results are deterministic,
so "the underlying cached points changed" is exactly "the key set
changed".  A state file next to the tables maps each figure to the
digest of its key set.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.charts import bar_chart
from repro.analysis.report import format_table, geometric_mean
from repro.core.blem import BlemConfig
from repro.core.copr import CoprConfig
from repro.orchestrator import ResultCache, code_fingerprint, stable_key
from repro.sim.runner import ExperimentScale, run_benchmark
from repro.sim.simulator import SimulationResult
from repro.workloads.profiles import all_benchmark_names

__all__ = [
    "FIGURES",
    "FigureSpec",
    "FigureStatus",
    "figure_scale",
    "plan",
    "point_key",
    "regenerate",
]

#: Name of the per-directory freshness state file.
STATE_FILE = ".figures_state.json"

_SEED = 2018
_ALL_SYSTEMS = ("baseline", "metadata_cache", "attache", "ideal")

#: Sweep results keyed results[workload][system].
Sweep = Dict[str, Dict[str, SimulationResult]]


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


@dataclass(frozen=True)
class FigureSpec:
    """One regenerable figure table.

    Attributes:
        name: output stem (``<out_dir>/<name>.txt``), matching the
            bench suite's ``publish`` names.
        title: human-readable description for ``repro figures --list``.
        systems: the systems each workload must be simulated under.
        render: sweep results -> table text.
    """

    name: str
    title: str
    systems: Tuple[str, ...]
    render: Callable[[Sweep], str]

    def points(self, scale: ExperimentScale) -> List[Tuple[str, str, str]]:
        """The ``(workload, system, cache key)`` points this figure
        consumes, in deterministic order."""
        return [
            (workload, system, point_key(workload, system, scale))
            for workload in all_benchmark_names()
            for system in self.systems
        ]


def point_key(workload: str, system: str, scale: ExperimentScale,
              copr_config: Optional[CoprConfig] = None,
              blem_config: BlemConfig = BlemConfig(),
              seed: int = _SEED) -> str:
    """The result-cache key of one simulated point.

    ``repro figures`` and the bench suite's ``ResultsCache`` both key
    their on-disk entries with it, so the two share cached points.
    """
    return stable_key({
        "kind": "bench",
        "workload": workload,
        "system": system,
        "copr_config": copr_config,
        "blem_config": blem_config,
        "seed": seed,
        "scale": scale,
        "code": code_fingerprint(),
    })


def _render_speedup(sweep: Sweep) -> str:
    rows = []
    for name in all_benchmark_names():
        base = sweep[name]["baseline"].runtime_core_cycles
        rows.append([
            name,
            base / sweep[name]["metadata_cache"].runtime_core_cycles,
            base / sweep[name]["attache"].runtime_core_cycles,
            base / sweep[name]["ideal"].runtime_core_cycles,
        ])
    rows.append([
        "GEOMEAN",
        geometric_mean([r[1] for r in rows]),
        geometric_mean([r[2] for r in rows]),
        geometric_mean([r[3] for r in rows]),
    ])
    table = format_table(
        ["benchmark", "metadata-cache", "attache", "ideal"],
        rows,
        title="Figure 12: Speedup over no-compression baseline",
    )
    return table + "\n\n" + bar_chart(
        [r[0] for r in rows], [r[2] for r in rows],
        title="Attaché speedup (| marks 1.0 = baseline)",
        baseline=1.0, unit="x",
    )


def _render_energy(sweep: Sweep) -> str:
    rows = []
    for name in all_benchmark_names():
        base = sweep[name]["baseline"].energy.total_nj
        rows.append([
            name,
            sweep[name]["metadata_cache"].energy.total_nj / base,
            sweep[name]["attache"].energy.total_nj / base,
            sweep[name]["ideal"].energy.total_nj / base,
        ])
    rows.append([
        "GEOMEAN",
        geometric_mean([r[1] for r in rows]),
        geometric_mean([r[2] for r in rows]),
        geometric_mean([r[3] for r in rows]),
    ])
    return format_table(
        ["benchmark", "metadata-cache", "attache", "ideal"],
        rows,
        title="Figure 13: Memory-system energy vs no-compression baseline",
    )


def _render_bandwidth_latency(sweep: Sweep) -> str:
    def line_throughput(result: SimulationResult) -> float:
        reads = result.memory_requests_by_kind.get("demand_read", 0)
        writes = result.memory_requests_by_kind.get("demand_write", 0)
        return 1000.0 * (reads + writes) / result.runtime_bus_cycles

    rows = []
    for name in all_benchmark_names():
        base = sweep[name]["baseline"]
        attache = sweep[name]["attache"]
        rows.append([
            name,
            line_throughput(attache) / line_throughput(base),
            attache.mean_read_latency_bus_cycles
            / base.mean_read_latency_bus_cycles,
        ])
    rows.append([
        "GEOMEAN",
        geometric_mean([r[1] for r in rows]),
        geometric_mean([r[2] for r in rows]),
    ])
    return format_table(
        ["benchmark", "line bandwidth vs baseline",
         "mean read latency vs baseline"],
        rows,
        title="Figure 14: Attaché bandwidth improvement and latency "
              "reduction",
    )


FIGURES: Tuple[FigureSpec, ...] = (
    FigureSpec(
        name="fig12_speedup",
        title="speedup over no-compression baseline",
        systems=_ALL_SYSTEMS,
        render=_render_speedup,
    ),
    FigureSpec(
        name="fig13_energy",
        title="memory-system energy vs baseline",
        systems=_ALL_SYSTEMS,
        render=_render_energy,
    ),
    FigureSpec(
        name="fig14_bandwidth_latency",
        title="bandwidth improvement and latency reduction",
        systems=("baseline", "attache"),
        render=_render_bandwidth_latency,
    ),
)


@dataclass
class FigureStatus:
    """Freshness of one figure against the state file."""

    spec: FigureSpec
    digest: str  #: digest of the figure's current point-key set
    fresh: bool  #: table exists and was rendered from this key set
    cached_points: int  #: points already present in the result cache
    total_points: int


def _state_path(out_dir: pathlib.Path) -> pathlib.Path:
    return out_dir / STATE_FILE


def _load_state(out_dir: pathlib.Path) -> Dict[str, str]:
    try:
        state = json.loads(_state_path(out_dir).read_text(encoding="utf-8"))
        return {str(k): str(v) for k, v in state.items()}
    except (OSError, ValueError, AttributeError):
        return {}


def _keyset_digest(keys: Sequence[str]) -> str:
    return hashlib.sha256("".join(keys).encode("ascii")).hexdigest()


def plan(
    cache: ResultCache,
    out_dir: pathlib.Path,
    scale: ExperimentScale,
    only: Optional[Sequence[str]] = None,
) -> List[FigureStatus]:
    """Freshness of every (selected) figure, without simulating."""
    names = set(only) if only else None
    if names:
        known = {spec.name for spec in FIGURES}
        unknown = names - known
        if unknown:
            raise ValueError(
                f"unknown figure(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(known))})"
            )
    state = _load_state(out_dir)
    statuses = []
    for spec in FIGURES:
        if names and spec.name not in names:
            continue
        points = spec.points(scale)
        digest = _keyset_digest([key for __, __, key in points])
        fresh = (
            state.get(spec.name) == digest
            and (out_dir / f"{spec.name}.txt").exists()
        )
        cached = sum(1 for __, __, key in points if cache.path(key).exists())
        statuses.append(FigureStatus(
            spec=spec, digest=digest, fresh=fresh,
            cached_points=cached, total_points=len(points),
        ))
    return statuses


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
    exists), or ``"rebuilt"``.  Missing points are simulated and stored
    in *cache*; points shared between figures simulate once.
    """
    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    out_dir.mkdir(parents=True, exist_ok=True)
    statuses = plan(cache, out_dir, scale, only=only)
    state = _load_state(out_dir)
    results: Dict[str, SimulationResult] = {}
    outcome = []
    for status in statuses:
        spec = status.spec
        if status.fresh and not force:
            say(f"{spec.name}: fresh (key set unchanged), skipping")
            outcome.append((status, "fresh"))
            continue
        sweep: Sweep = {}
        for workload, system, key in spec.points(scale):
            result = results.get(key)
            if result is None:
                result = cache.get(key)
            if result is None:
                say(f"{spec.name}: simulating {workload}/{system}")
                result = run_benchmark(
                    workload, system, scale=scale, seed=_SEED,
                )
                cache.put(key, result,
                          meta={"workload": workload, "system": system})
            results[key] = result
            sweep.setdefault(workload, {})[system] = result
        table = spec.render(sweep)
        (out_dir / f"{spec.name}.txt").write_text(
            table + "\n", encoding="utf-8"
        )
        state[spec.name] = status.digest
        _state_path(out_dir).write_text(
            json.dumps(state, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        say(f"{spec.name}: rebuilt ({status.total_points} points, "
            f"{status.cached_points} cached)")
        outcome.append((status, "rebuilt"))
    return outcome
