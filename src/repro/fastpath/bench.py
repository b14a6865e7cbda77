"""The pinned benchmarks: one table of workloads, one best-of-N runner.

Performance claims need fixed yardsticks.  Each :class:`Pin` in
:data:`PINS` fixes one workload and two modes of the code that must
produce bit-identical results: a fast mode and the slow mode it
replaces (fast path on/off, warm pool/spawn-per-job, vector
kernels/scalar loops).

:func:`run_pin` measures a pin with the only timing methodology that is
stable on a shared machine: the modes alternate, so slow machine-wide
drift (thermal throttling, a background build) biases both alike, and
each mode keeps its minimum wall clock over N repeats — interference
only ever *adds* time, so the minimum estimates the noise floor.
Absolute times are NOT comparable across machines; the CI gate
therefore compares the slow/fast *speedup ratio* against the committed
``benchmarks/BENCH_<pin>.json``, which divides the machine out.  Do not
change a pin's config casually: its committed baseline was measured
against exactly that config.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro import fastpath, kernels
from repro.sim.runner import ExperimentScale, run_benchmark


def result_digest(result) -> str:
    """Canonical digest of a result payload, for bit-identity checks."""
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def grid_digest(results) -> str:
    """One digest over a grid's results, in grid order."""
    joined = "".join(result_digest(result) for result in results)
    return hashlib.sha256(joined.encode("ascii")).hexdigest()


#: ``run(config, fast)`` -> ``(events, digest, perf)``.
PinRun = Callable[[dict, bool], Tuple[int, str, Optional[dict]]]


@dataclass(frozen=True)
class Pin:
    """One pinned workload, measured in a fast and a slow mode.

    ``run(config, fast)`` runs the workload once in one mode and returns
    the events it simulated (retired instructions, functional records or
    grid points), the result digest both modes must agree on, and the
    run's ``SimulationResult.perf`` (``None`` where there is no single
    detailed result).
    """

    name: str
    modes: Tuple[str, str]  #: (fast label, slow label)
    run: PinRun
    config: dict  #: the workload's fixed parameters, published as-is


def _detailed(gate) -> PinRun:
    """A detailed run of the config's point with *gate* forced per mode."""

    def run(config: dict, fast: bool):
        with gate(fast):
            result = run_benchmark(
                config["benchmark"], config["system"],
                scale=ExperimentScale(name="pin", **config["scale"]),
                seed=config["seed"],
            )
        return result.instructions, result_digest(result), result.perf

    return run


def _sweep(config: dict, fast: bool):
    from repro.orchestrator import Orchestrator

    pool = "warm" if fast else "spawn"
    report = Orchestrator(jobs=1, pool=pool).run(_sweep_specs(config))
    if not report.ok:
        failures = [o.error for o in report.failures]
        raise RuntimeError(f"pinned sweep failed under {pool}: {failures}")
    return len(report.results), grid_digest(report.results), None


def _sweep_specs(config: dict):
    from repro.core.copr import CoprConfig
    from repro.orchestrator.jobs import JobSpec

    scale = ExperimentScale(name="pin", **config["scale"])
    variants = [(system, {}) for system in config["systems"]] + [
        ("attache", {"copr_config": CoprConfig(papr_entries=entries)})
        for entries in config["papr_entries"]
    ]
    return [
        JobSpec(benchmark=benchmark, system=system, scale=scale, seed=seed,
                parameters=parameters)
        for benchmark in config["benchmarks"]
        for seed in config["seeds"]
        for system, parameters in variants
    ]


def _functional(config: dict, fast: bool):
    from repro.core.metadata_cache import MetadataCache
    from repro.sim.functional import run_functional

    with kernels.overridden(fast):
        result = run_functional(
            config["benchmark"],
            cores=config["cores"],
            records_per_core=config["records_per_core"],
            seed=config["seed"],
            footprint_scale=config["footprint_scale"],
            llc_bytes=config["llc_bytes"],
            llc_ways=config["llc_ways"],
            metadata_cache=MetadataCache(
                capacity_bytes=config["mdcache_bytes"],
                ways=config["mdcache_ways"],
                policy="lru",
            ),
        )
    events = config["cores"] * config["records_per_core"]
    return events, result_digest(result), None


PINS: Dict[str, Pin] = {pin.name: pin for pin in (
    Pin(
        name="single_run",
        modes=("fastpath", "reference"),
        run=_detailed(fastpath.overridden),
        # No warm-up: warm-up records exercise the same code as timed
        # ones, so they only dilute the measured per-record costs.
        config={
            "benchmark": "RAND", "system": "attache", "seed": 2018,
            "scale": {"factor": 32, "cores": 4, "records_per_core": 1500,
                      "warmup_per_core": 0},
        },
    ),
    Pin(
        name="sweep",
        modes=("warm", "spawn"),
        run=_sweep,
        # Shaped like a real paper study (a seed axis, three systems and
        # an Attaché PaPR-size axis), so many small points share each
        # workload: per-job fixed costs (process launch, workload
        # regeneration, cold caches) dominate, which is what the warm
        # pool's shared bank and memo caches target.
        config={
            "benchmarks": ["mcf", "omnetpp"],
            "systems": ["baseline", "metadata_cache", "ideal"],
            "seeds": [7, 8],
            "papr_entries": [64, 128, 256, 512, 1024, 4096],
            "scale": {"factor": 64, "cores": 2, "records_per_core": 60,
                      "warmup_per_core": 20},
        },
    ),
    Pin(
        name="functional",
        modes=("vector", "scalar"),
        run=_functional,
        # The Figs. 1/15/16 shape: a shared LLC feeding an lru metadata
        # cache, no COPR.
        config={
            "benchmark": "mix1", "cores": 4, "records_per_core": 20000,
            "seed": 2018, "footprint_scale": 1 / 32,
            "llc_bytes": 256 * 1024, "llc_ways": 8,
            "mdcache_bytes": 32 * 1024, "mdcache_ways": 16,
        },
    ),
    Pin(
        name="timing",
        modes=("vector", "scalar"),
        run=_detailed(kernels.overridden),
        # The paper warms 40 B instructions before timing 4 B; this pin
        # leans further (20:1), so most records land in the warm-up the
        # vector plane batches.  Only REPRO_VECTOR differs between modes.
        config={
            "benchmark": "RAND", "system": "attache", "seed": 2018,
            "scale": {"factor": 32, "cores": 4, "records_per_core": 600,
                      "warmup_per_core": 12000},
        },
    ),
)}


def pinned_sweep_specs():
    """The sweep pin's grid as orchestrator job specs."""
    return _sweep_specs(PINS["sweep"].config)


@dataclass
class BenchRun:
    """One timed run of a pin in one mode."""

    wall_s: float
    events: int
    digest: str
    perf: Optional[dict]  #: SimulationResult.perf of this run, if any

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "wall_s": round(self.wall_s, 6),
            "events": self.events,
            "events_per_s": round(self.events_per_s, 3),
            "digest": self.digest,
            "perf": self.perf,
        }


@dataclass
class BenchReport:
    """Best-of-N measurement of one pin, both modes."""

    pin: Pin
    fast: BenchRun  #: best (minimum wall clock) fast-mode run
    slow: BenchRun  #: best slow-mode run
    repeats: int
    identical: bool  #: every run of both modes produced one digest

    @property
    def speedup(self) -> float:
        """slow/fast wall-clock ratio of the best runs (machine-free)."""
        return self.slow.wall_s / self.fast.wall_s if self.fast.wall_s else 0.0

    def to_dict(self) -> dict:
        fast_label, slow_label = self.pin.modes
        return {
            "pin": self.pin.name,
            "config": self.pin.config,
            "repeats": self.repeats,
            "identical": self.identical,
            "speedup": round(self.speedup, 3),
            "modes": {
                fast_label: self.fast.to_dict(),
                slow_label: self.slow.to_dict(),
            },
        }


def run_pin(name: str, repeats: int = 3) -> BenchReport:
    """Best-of-*repeats* measurement of pin *name*, modes interleaved."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    pin = PINS[name]
    runs: Dict[bool, list] = {True: [], False: []}
    for _ in range(repeats):
        for fast in (True, False):
            start = time.perf_counter()
            events, digest, perf = pin.run(pin.config, fast)
            wall = time.perf_counter() - start
            runs[fast].append(BenchRun(wall, events, digest, perf))
    digests = {run.digest for mode in runs.values() for run in mode}
    return BenchReport(
        pin=pin,
        fast=min(runs[True], key=lambda run: run.wall_s),
        slow=min(runs[False], key=lambda run: run.wall_s),
        repeats=repeats,
        identical=len(digests) == 1,
    )


__all__ = [
    "PINS",
    "BenchReport",
    "BenchRun",
    "Pin",
    "grid_digest",
    "pinned_sweep_specs",
    "result_digest",
    "run_pin",
]
