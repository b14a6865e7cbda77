"""Traced-run recorder: which layer of the repo the host time goes to.

Used for the traced run only.  The recorder wraps the public entry
points of the repo's modules (:data:`ENTRY_POINTS`) from the benchmark's
side, before the first system is built, and restores them after.
Every wrapped call pushes a frame; on return its *self time* — its
duration minus the time its wrapped children took — is added to the
``(operation, key)`` cell, with a call count.  Nested calls are thus
never counted twice, and summed over all keys the self times of one
operation equal its duration exactly.  Fine-grained calls (millions
inside the event loop) stay aggregated; only *coarse* entry points
(builds, warm-up, the event loop, energy, cache I/O) also keep a span
``(name, start, end, parent, request)`` in memory, so a traced run
holds a few spans per operation, not one per call.

:func:`layer_metrics` folds the written trace into the named per-layer
metrics.  For the sweep workload the work runs in forked warm workers,
so instead of wrapping code there the orchestrator's own fleet spans are
read back (:func:`fleet_metrics`).

Layer -> the end-to-end metric a change to it should move (both
throughput metrics track one wall time per workload):

============================  =========================================
layer (metric prefix)         should move
============================  =========================================
``dram``                      ``sim_instr_per_s`` on figures (the
                              largest layer); little on sweep
``core`` (controllers)        ``sim_instr_per_s`` on figures
``core.copr``                 figures (attache points)
``core.blem``                 figures (attache points)
``core.metadata_cache``       figures (md-cache points)
``compression``, ``scramble`` figures
``cpu`` (the LLC)             figures
``workloads``                 figures (the 4 systems regenerate each
                              profile's trace); not sweep, where the
                              bank shares traces
``kernels.warmup``            figures (2:1 warm-up); little on sweep
``sim``                       figures
``energy``                    expected ~0: a layer that costs nothing is
                              not optimised
``orchestrator``              ``sweep_jobs_per_s`` on sweep (cache I/O
                              on figures)
============================  =========================================
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

CONTROLLER_METHODS = ("read_line", "write_line", "warm_read", "warm_write")

#: ``(key, module, class or None, attributes, coarse)``.  A key's first
#: dotted component is its layer, named after the ``repro`` package.
ENTRY_POINTS = (
    ("dram", "repro.dram.memory_system", "MainMemory",
     ("issue", "advance", "next_event_cycle", "flush_writes"), False),
    ("core", "repro.core.controllers", "MemoryController",
     ("warm_read", "warm_write"), False),
    ("core", "repro.core.controllers", "BaselineController",
     ("read_line", "write_line"), False),
    ("core", "repro.core.controllers", "IdealController",
     CONTROLLER_METHODS, False),
    ("core", "repro.core.controllers", "MetadataCacheController",
     CONTROLLER_METHODS, False),
    ("core", "repro.core.controllers", "AttacheController",
     CONTROLLER_METHODS, False),
    ("core.copr", "repro.core.copr", "CoprPredictor",
     ("predict", "update"), False),
    ("core.copr", "repro.kernels.copr", None, ("copr_train_batch",), True),
    ("core.blem", "repro.core.blem", "BlemEngine",
     ("encode_write", "decode_read"), False),
    ("core.metadata_cache", "repro.core.metadata_cache", "MetadataCache",
     ("access",), False),
    ("compression", "repro.compression.engine", "CompressionEngine",
     ("compress", "is_compressible", "is_compressible_many",
      "compressed_size", "decompress", "decompress_prefix"), False),
    ("scramble", "repro.scramble.scrambler", "DataScrambler",
     ("keystream", "scramble", "descramble", "keystream_lines",
      "scramble_lines"), False),
    ("cpu", "repro.cpu.cache", "LastLevelCache",
     ("access", "access_many"), False),
    ("workloads", "repro.workloads.tracegen", None, ("build_workload",),
     True),
    ("workloads", "repro.workloads.tracegen", "CompositeDataModel",
     ("line_data", "line_class"), False),
    ("kernels.warmup.vector", "repro.kernels.timing", None,
     ("warm_up_vector",), True),
    ("kernels.warmup.prewarm", "repro.kernels.timing", None,
     ("prewarm_timed_phase",), True),
    ("sim", "repro.sim.simulator", "Simulator", ("run",), True),
    ("energy", "repro.energy.model", "EnergyModel", ("report",), True),
    ("orchestrator.cache_get", "repro.orchestrator.cache", "ResultCache",
     ("get",), True),
    ("orchestrator.cache_put", "repro.orchestrator.cache", "ResultCache",
     ("put",), True),
    ("orchestrator.run", "repro.orchestrator.pool", "Orchestrator",
     ("run",), True),
)

#: The layers whose self times, plus ``bench.self_s``, make up the
#: traced wall time.
LAYERS = ("workloads", "kernels", "sim", "cpu", "core", "compression",
          "scramble", "dram", "energy", "orchestrator")

#: The operation itself (harness glue and unwrapped program code).
BENCH = "bench"
#: Table for wrapped calls made outside any operation (none expected).
OUTSIDE = "-"

#: Every per-layer metric the traced run prints, with its unit.
PER_LAYER = (
    ("dram.self_s", "s"), ("dram.calls", "count"),
    ("dram.us_per_request", "us"),
    ("core.self_s", "s"), ("core.calls", "count"),
    ("core.copr_self_s", "s"), ("core.blem_self_s", "s"),
    ("core.metadata_cache_self_s", "s"),
    ("compression.self_s", "s"), ("compression.calls", "count"),
    ("scramble.self_s", "s"),
    ("cpu.self_s", "s"), ("cpu.llc_calls", "count"),
    ("workloads.self_s", "s"), ("workloads.calls", "count"),
    ("kernels.self_s", "s"), ("kernels.warmup_self_s", "s"),
    ("kernels.warmup_vector_ratio", "ratio"),
    ("sim.self_s", "s"),
    ("energy.self_s", "s"),
    ("orchestrator.self_s", "s"),
    ("orchestrator.cache_put_s", "s"), ("orchestrator.cache_get_s", "s"),
    ("orchestrator.queued_s.p50", "s"), ("orchestrator.queued_s.p95", "s"),
    ("orchestrator.dispatch_s.p50", "s"),
    ("orchestrator.run_s.p50", "s"), ("orchestrator.run_s.p95", "s"),
    ("orchestrator.worker_run_s.p50", "s"),
    ("orchestrator.worker_run_s.p95", "s"),
    ("orchestrator.overhead_s.p50", "s"),
    ("orchestrator.bank_attach_s", "s"),
    ("orchestrator.utilization", "ratio"),
    ("orchestrator.retries", "count"),
    ("point_s.baseline", "s"), ("point_s.metadata_cache", "s"),
    ("point_s.attache", "s"), ("point_s.ideal", "s"),
    ("dram.scheduler_computes", "count"),
    ("dram.scheduler_horizon_skips", "count"),
    ("dram.bucket_hit_rate", "ratio"),
    ("compression.classify_hit_rate", "ratio"),
    ("compression.full_encodes", "count"),
    ("scramble.keystream_hit_rate", "ratio"),
    ("core.verified_read_hit_rate", "ratio"),
    ("sim.instructions", "count"), ("cpu.llc_misses", "count"),
    ("dram.requests", "count"),
    ("bench.self_s", "s"), ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
)


class Recorder:
    """In-memory span and self-time recorder for one traced pass."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._epoch = clock()
        #: request -> key -> [calls, self seconds, truthy returns]
        self.tables: Dict[str, Dict[str, list]] = {OUTSIDE: {}}
        #: coarse spans: name, start, end, parent (index), request
        self.spans: List[dict] = []
        #: summed duration of every operation (the traced wall time)
        self.wall_s = 0.0
        self._table = self.tables[OUTSIDE]
        self._request = OUTSIDE
        #: one ``[child seconds]`` cell per open call; the base frame
        #: absorbs calls made outside any operation.
        self._frames: List[list] = [[0.0]]
        self._open_spans: List[int] = []
        self._replaced: list = []

    def _enter(self, name: str, coarse: bool):
        frame = [0.0]
        self._frames.append(frame)
        span = None
        if coarse:
            span = len(self.spans)
            self.spans.append({
                "name": name, "start": 0.0, "end": 0.0,
                "parent": self._open_spans[-1] if self._open_spans else None,
                "request": self._request,
            })
            self._open_spans.append(span)
        return frame, span

    def _exit(self, key: str, frame: list, span: Optional[int],
              start: float, elapsed: float) -> list:
        frames = self._frames
        frames.pop()
        frames[-1][0] += elapsed
        entry = self._table.get(key)
        if entry is None:
            entry = self._table[key] = [0, 0.0, 0]
        entry[0] += 1
        entry[1] += elapsed - frame[0]
        if span is not None:
            self._open_spans.pop()
            record = self.spans[span]
            record["start"] = start - self._epoch
            record["end"] = start + elapsed - self._epoch
        return entry

    def wrap(self, key: str, fn, coarse: bool = False,
             count_true: bool = False):
        """*fn* timed under *key*; ``count_true`` also counts truthy
        returns (``warm_up_vector`` reports whether it took the vector
        path)."""
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame, span = self._enter(key, coarse)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(key, frame, span, start, clock() - start)
                raise
            entry = self._exit(key, frame, span, start, clock() - start)
            if count_true and result:
                entry[2] += 1
            return result

        return timed

    @contextmanager
    def op(self, request: str):
        """One operation: the root span whose id tags every call in it."""
        outer = (self._table, self._request)
        self._table = self.tables.setdefault(request, {})
        self._request = request
        frame, span = self._enter(BENCH, True)
        start = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - start
            self._exit(BENCH, frame, span, start, elapsed)
            self.wall_s += elapsed
            self._table, self._request = outer

    def install(self, layers: Optional[Iterable[str]] = None) -> None:
        """Time every entry point of *layers* (all layers when ``None``).

        A module-level function is also replaced in each ``repro``
        module that imported it by name, so call sites holding the name
        from import time are timed too.
        """
        wanted = set(layers) if layers is not None else None
        entries = [entry for entry in ENTRY_POINTS
                   if wanted is None or entry[0].split(".")[0] in wanted]
        for entry in entries:
            importlib.import_module(entry[1])
        modules = [module for name, module in sorted(sys.modules.items())
                   if name.split(".")[0] == "repro" and module is not None]
        for key, module_name, class_name, names, coarse in entries:
            module = sys.modules[module_name]
            count_true = key == "kernels.warmup.vector"
            for name in names:
                if class_name is not None:
                    owner = getattr(module, class_name)
                    original = owner.__dict__[name]
                    self._replace(owner, name, original,
                                  self.wrap(key, original, coarse, count_true))
                    continue
                original = getattr(module, name)
                timed = self.wrap(key, original, coarse, count_true)
                for holder in modules:
                    if holder.__dict__.get(name) is original:
                        self._replace(holder, name, original, timed)

    def _replace(self, owner, name: str, original, timed) -> None:
        setattr(owner, name, timed)
        self._replaced.append((owner, name, original))

    def uninstall(self) -> None:
        """Put every original entry point back."""
        while self._replaced:
            owner, name, original = self._replaced.pop()
            setattr(owner, name, original)

    def document(self, **extra) -> dict:
        """The trace as one JSON-compatible document."""
        return {"schema": 1, "wall_s": self.wall_s, "spans": self.spans,
                "tables": self.tables, **extra}


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def fleet_metrics(records: List[dict], summary: dict) -> Dict[str, float]:
    """Orchestrator per-layer metrics from its fleet spans and summary."""
    by_phase = defaultdict(list)
    attempts = defaultdict(dict)
    retries = 0
    for record in records:
        if record.get("event") == "mark" and record.get("phase") == "retry":
            retries += 1
        if record.get("event") != "span":
            continue
        duration = record["t1"] - record["t0"]
        by_phase[record["phase"]].append(duration)
        attempts[(record.get("key"), record.get("attempt"))][
            record["phase"]] = duration
    overheads = [phases["run"] - phases["worker_run"]
                 for phases in attempts.values()
                 if "run" in phases and "worker_run" in phases]
    return {
        "orchestrator.queued_s.p50": _percentile(by_phase["queued"], 0.50),
        "orchestrator.queued_s.p95": _percentile(by_phase["queued"], 0.95),
        "orchestrator.dispatch_s.p50":
            _percentile(by_phase["dispatch"], 0.50),
        "orchestrator.run_s.p50": _percentile(by_phase["run"], 0.50),
        "orchestrator.run_s.p95": _percentile(by_phase["run"], 0.95),
        "orchestrator.worker_run_s.p50":
            _percentile(by_phase["worker_run"], 0.50),
        "orchestrator.worker_run_s.p95":
            _percentile(by_phase["worker_run"], 0.95),
        "orchestrator.overhead_s.p50": _percentile(overheads, 0.50),
        "orchestrator.bank_attach_s": sum(by_phase["bank_attach"]),
        "orchestrator.utilization": float(
            summary.get("worker_utilization", 0.0)),
        "orchestrator.retries": retries,
    }


def _ratio(hits: float, attempts: float) -> float:
    return hits / attempts if attempts else 0.0


def layer_metrics(doc: dict, traced: dict, untraced: dict) -> Dict[str, float]:
    """Fold a trace document into the :data:`PER_LAYER` metrics.

    *traced* and *untraced* are the two passes' reports (work counts,
    fleet metrics, per-operation wall times).  Raises ``ValueError`` if
    the layers' self times and ``bench.self_s`` do not add up to the
    traced wall time.
    """
    totals = defaultdict(lambda: [0, 0.0, 0])
    for request, table in doc["tables"].items():
        if request == OUTSIDE:
            continue
        for key, (calls, self_s, trues) in table.items():
            cell = totals[key]
            cell[0] += calls
            cell[1] += self_s
            cell[2] += trues

    def self_of(prefix: str) -> float:
        return sum(cell[1] for key, cell in totals.items()
                   if key == prefix or key.startswith(prefix + "."))

    def calls_of(key: str) -> int:
        return totals[key][0] if key in totals else 0

    counts = defaultdict(int, traced.get("counts", {}))
    metrics = {name: 0.0 for name, __ in PER_LAYER}
    for layer in LAYERS:
        metrics[layer + ".self_s"] = self_of(layer)
    vector = totals["kernels.warmup.vector"]
    metrics.update({
        "dram.calls": calls_of("dram"),
        "core.calls": calls_of("core"),
        "core.copr_self_s": self_of("core.copr"),
        "core.blem_self_s": self_of("core.blem"),
        "core.metadata_cache_self_s": self_of("core.metadata_cache"),
        "compression.calls": calls_of("compression"),
        "cpu.llc_calls": calls_of("cpu"),
        "workloads.calls": calls_of("workloads"),
        "kernels.warmup_self_s": self_of("kernels.warmup"),
        "kernels.warmup_vector_ratio": _ratio(vector[2], vector[0]),
        "orchestrator.cache_put_s": self_of("orchestrator.cache_put"),
        "orchestrator.cache_get_s": self_of("orchestrator.cache_get"),
        "bench.self_s": self_of(BENCH),
        "trace.wall_s": doc["wall_s"],
        "trace.overhead": _ratio(traced["wall_s"], untraced["wall_s"]),
        "dram.us_per_request": _ratio(1e6 * self_of("dram"),
                                      counts["dram.requests"]),
    })
    for name in ("dram.scheduler_computes", "dram.scheduler_horizon_skips",
                 "compression.full_encodes", "sim.instructions",
                 "cpu.llc_misses", "dram.requests"):
        metrics[name] = counts[name]
    for name, key in (("dram.bucket_hit_rate", "dram.bucket"),
                      ("compression.classify_hit_rate",
                       "compression.classify"),
                      ("scramble.keystream_hit_rate", "scramble.keystream"),
                      ("core.verified_read_hit_rate", "core.verified_read")):
        hits = counts[key + "_hits"]
        metrics[name] = _ratio(hits, hits + counts[key + "_misses"])
    metrics.update(traced.get("fleet", {}))
    by_system = defaultdict(list)
    for __, ___, error, wall_s, group in untraced["ops"]:
        if error is None and wall_s:
            by_system[group].append(wall_s)
    for system in ("baseline", "metadata_cache", "attache", "ideal"):
        if by_system.get(system):
            metrics["point_s." + system] = statistics.median(by_system[system])

    accounted = metrics["bench.self_s"] + sum(
        metrics[layer + ".self_s"] for layer in LAYERS)
    if abs(accounted - doc["wall_s"]) > 1e-6 * max(1.0, doc["wall_s"]):
        raise ValueError(
            f"layer self times sum to {accounted}s but the traced wall "
            f"time is {doc['wall_s']}s: a call was counted twice or lost"
        )
    return metrics
