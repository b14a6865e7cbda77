"""The benchmark's workloads: their inputs and one pass over them.

Each workload is a fixed, seeded list of *operations*; a run repeats
whole passes over it in one fresh interpreter:

``figures``
    The Fig. 12/13/14 point set: four systems on five profiles
    (streaming, pointer-chasing, graph, incompressible-random and mixed
    traffic) at factor 64 on 8 cores, 150 timed records per core after a
    300-record warm-up (the 2:1 warm-up of the benches' presets), each
    point simulated in-process against an empty result cache and stored
    into it.  Most host time goes to the detailed model: DRAM
    scheduling, then BLEM, compression and COPR on Attaché points.
    Points are a quarter of the ``tiny`` preset's length so that a
    ~5 s pass repeats often enough within a run for per-point best
    times to be steady on a noisy shared host.
``sweep``
    The pinned 36-point sweep grid's shape with its seed axis widened to
    8 distinct seeds (144 small jobs), run as one 18-job sweep per seed
    through ``Orchestrator(jobs=1, pool="warm")``, pool start included
    (users pay it on every sweep).  Jobs take ~25 ms, so per-job fixed
    costs dominate: dispatch, the pipe round trip, bank attach and
    result rebuild; the detailed model does little.  One worker, because
    on a 2-core host two workers measure the OS scheduler rather than
    the program.  Eight short timed regions instead of one long one let
    per-region best times filter the host's noise.

Nothing here imports ``repro.fastpath.bench``: its harnesses are slated
to be folded, and the benchmark must not move with them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

WORKLOADS = ("figures", "sweep")
SIZES = ("full", "tiny")
DEFAULT_SEED = 2018

FIGURE_PROFILES = ("STREAM", "mcf", "pr.kron", "RAND", "mix1")
FIGURE_SYSTEMS = ("baseline", "metadata_cache", "attache", "ideal")
SWEEP_BENCHMARKS = ("mcf", "omnetpp")
SWEEP_SYSTEMS = ("baseline", "metadata_cache", "ideal")
SWEEP_PAPR_ENTRIES = (64, 128, 256, 512, 1024, 4096)

#: Per-size shape of each workload.  ``tiny`` exists for the
#: benchmark's own tests; only ``full`` is measured and pinned.
SHAPES = {
    "full": {
        "figure_profiles": FIGURE_PROFILES,
        "figure_cores": 8, "figure_records": 150, "figure_warmup": 300,
        "sweep_seeds": 8,
    },
    "tiny": {
        "figure_profiles": ("STREAM", "mix1"),
        "figure_cores": 2, "figure_records": 40, "figure_warmup": 40,
        "sweep_seeds": 1,
    },
}


def result_digest(payload: dict) -> str:
    """sha256 of a result's canonical JSON (its ``to_dict()`` payload)."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def fold_digests(ops) -> str:
    """One digest over a pass's ``(op id, digest)`` pairs, in pass order."""
    digest = hashlib.sha256()
    for op_id, op_digest in ops:
        digest.update(f"{op_id}:{op_digest}\n".encode("utf-8"))
    return digest.hexdigest()


@dataclass
class OpOutcome:
    """One operation of a pass: a figure point or a sweep job."""

    op_id: str
    digest: Optional[str]
    error: Optional[str] = None
    wall_s: float = 0.0  #: 0 for sweep jobs (each sweep is timed whole)
    group: str = ""  #: the system of a figure point

    def to_list(self) -> list:
        return [self.op_id, self.digest, self.error, self.wall_s, self.group]


@dataclass
class PassResult:
    """Everything one pass of one workload measured."""

    ops: List[OpOutcome]
    #: timed region -> seconds: one per figure point or per sweep
    regions: Dict[str, float]
    instructions: int  #: simulated instructions across the pass
    records: int  #: trace records streamed across the pass
    counts: Dict[str, float] = field(default_factory=dict)
    fleet: Dict[str, float] = field(default_factory=dict)


class NullRecorder:
    """Stands in for :class:`recorder.Recorder` on untraced passes."""

    def op(self, request: str):
        return contextlib.nullcontext()


def _sum_counts(total: Dict[str, float], result) -> None:
    """Fold one detailed result's work counters into *total*."""
    total["sim.instructions"] += result.instructions
    total["cpu.llc_misses"] += result.llc_misses
    total["dram.requests"] += sum(result.memory_requests_by_kind.values())
    perf = result.perf
    if perf is None:  # results rebuilt from a worker carry no telemetry
        return
    scheduler = perf["scheduler"]
    total["dram.scheduler_computes"] += scheduler["computes"]
    total["dram.scheduler_horizon_skips"] += scheduler["horizon_skips"]
    total["dram.bucket_hits"] += scheduler["bucket"]["hits"]
    total["dram.bucket_misses"] += scheduler["bucket"]["misses"]
    for name, key in (("classify", "compression.classify"),
                      ("keystream", "scramble.keystream"),
                      ("verified_reads", "core.verified_read")):
        counters = perf.get(name)
        if counters is not None:
            total[key + "_hits"] += counters["hits"]
            total[key + "_misses"] += counters["misses"]
    total["compression.full_encodes"] += perf.get("full_encodes", 0)


def _timed(recorder, op_id: str, work: Callable[[], object]):
    """Run one operation inside its timed region.

    Returns ``(result, error, wall_s)``; an exception is the operation's
    failure, not the benchmark's.
    """
    with recorder.op(op_id):
        start = time.perf_counter()
        try:
            result, error = work(), None
        except Exception as exc:  # counted as a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    return result, error, wall


class FiguresWorkload:
    """Cold figure points: simulate, then store into an empty cache."""

    def __init__(self, seed: int, size: str, scratch) -> None:
        from repro.orchestrator import JobSpec
        from repro.sim.runner import ExperimentScale

        shape = SHAPES[size]
        self.scale = ExperimentScale(
            name="bench-figures", factor=64, cores=shape["figure_cores"],
            records_per_core=shape["figure_records"],
            warmup_per_core=shape["figure_warmup"],
        )
        self.specs = [
            JobSpec(benchmark=profile, system=system, scale=self.scale,
                    seed=seed)
            for profile in shape["figure_profiles"]
            for system in FIGURE_SYSTEMS
        ]
        self.scratch = scratch

    @staticmethod
    def _point(spec, cache):
        from repro.orchestrator import execute_job

        key = spec.key()
        if cache.get(key) is not None:
            raise RuntimeError("result cache was not empty")
        result = execute_job(spec)
        cache.put(key, result, meta={"workload": spec.benchmark,
                                     "system": spec.system})
        return result

    def run(self, recorder, index: int = 0) -> PassResult:
        from repro.orchestrator import ResultCache

        cache = ResultCache(self.scratch / f"results-{index}")
        ops, counts, regions = [], defaultdict(int), {}
        instructions = 0
        for spec in self.specs:
            op_id = f"{spec.benchmark}/{spec.system}"
            result, error, regions[op_id] = _timed(
                recorder, op_id, lambda spec=spec: self._point(spec, cache)
            )
            digest = None
            if result is not None:
                digest = result_digest(result.to_dict())
                instructions += result.instructions
                _sum_counts(counts, result)
            ops.append(OpOutcome(op_id, digest, error, regions[op_id],
                                 spec.system))
        per_point = (
            self.scale.records_per_core + self.scale.effective_warmup
        ) * self.scale.cores
        return PassResult(ops, regions, instructions,
                          per_point * len(self.specs), dict(counts))


class SweepWorkload:
    """Small jobs through the warm pool, one worker, no cache: one sweep
    (``Orchestrator.run``, pool start included) per seed."""

    def __init__(self, seed: int, size: str, scratch) -> None:
        from repro.core.copr import CoprConfig
        from repro.orchestrator import JobSpec
        from repro.sim.runner import ExperimentScale

        self.scale = ExperimentScale(
            name="pin-sweep", factor=64, cores=2, records_per_core=60,
            warmup_per_core=20,
        )
        #: (sweep id, [(op id, job spec)]) per seed
        self.sweeps = []
        for job_seed in range(seed, seed + SHAPES[size]["sweep_seeds"]):
            jobs = []
            for benchmark in SWEEP_BENCHMARKS:
                jobs.extend(
                    (f"{benchmark}/{system}/{job_seed}",
                     JobSpec(benchmark=benchmark, system=system,
                             scale=self.scale, seed=job_seed))
                    for system in SWEEP_SYSTEMS
                )
                jobs.extend(
                    (f"{benchmark}/attache/{job_seed}/papr={entries}",
                     JobSpec(benchmark=benchmark, system="attache",
                             scale=self.scale, seed=job_seed,
                             parameters={"copr_config":
                                         CoprConfig(papr_entries=entries)}))
                    for entries in SWEEP_PAPR_ENTRIES
                )
            self.sweeps.append((f"sweep/{job_seed}", jobs))
        self.scratch = scratch

    def run(self, recorder, index: int = 0,
            spans: bool = False) -> PassResult:
        from repro.obs.fleet import FleetConfig, load_span_records
        from repro.orchestrator import Orchestrator

        ops, counts, regions = [], defaultdict(int), {}
        instructions = jobs_total = 0
        span_records, utilizations = [], []
        for sweep_id, jobs in self.sweeps:
            work = self.scratch / f"pass{index}" / sweep_id
            (work / "bank").mkdir(parents=True)
            orchestrator = Orchestrator(jobs=1, pool="warm",
                                        bank_dir=work / "bank")
            fleet = FleetConfig(spans=spans,
                                spans_path=work / "spans.jsonl")
            specs = [spec for __, spec in jobs]
            report, error, regions[sweep_id] = _timed(
                recorder, sweep_id,
                lambda: orchestrator.run(specs, fleet=fleet),
            )
            jobs_total += len(jobs)
            for position, (op_id, __) in enumerate(jobs):
                outcome = (report.outcomes[position] if report is not None
                           else None)
                if outcome is None:
                    ops.append(OpOutcome(op_id, None, error or "no outcome"))
                elif outcome.status == "failed" or outcome.result is None:
                    ops.append(OpOutcome(op_id, None,
                                         outcome.error or outcome.status))
                else:
                    result = outcome.result
                    instructions += result.instructions
                    _sum_counts(counts, result)
                    ops.append(OpOutcome(op_id,
                                         result_digest(result.to_dict())))
            if spans and report is not None:
                span_records.extend(load_span_records(work))
                utilizations.append(report.summary["worker_utilization"])
        fleet_metrics = {}
        if utilizations:
            from recorder import fleet_metrics as fold_fleet

            fleet_metrics = fold_fleet(span_records, {
                "worker_utilization": sum(utilizations) / len(utilizations),
            })
        records = (
            (self.scale.records_per_core + self.scale.effective_warmup)
            * self.scale.cores * jobs_total
        )
        return PassResult(ops, regions, instructions, records, dict(counts),
                          fleet_metrics)


def build(name: str, seed: int, size: str, scratch):
    """The named workload's specs and scratch state (part of set-up)."""
    factories = {"figures": FiguresWorkload, "sweep": SweepWorkload}
    return factories[name](seed, size, scratch)
