"""Fleet observability: orchestration spans across pool and cluster.

Where :mod:`repro.obs.tracer` follows one simulated request *inside* a
run, this module follows one *job attempt* across the orchestration
layer: how long it sat queued, how long dispatch took, where it ran
(local worker or remote agent), whether it retried or was requeued
after its agent died, and how long cache probes and workload-bank
attaches cost.  Every event
lands in a :class:`SpanLog` — an append-only JSONL stream under the run
directory (``<run-dir>/spans.jsonl``) plus an in-memory copy — and
``repro trace --run <run-dir>`` merges the whole distributed sweep into
one Chrome/Perfetto trace reusing the PR 3 :class:`EventTracer` format.

Span taxonomy (``phase`` values)::

    queued        job waiting for a worker slot (per attempt)
    dispatch      backend.launch() handoff (fork / pipe send / TCP send)
    run           attempt executing (coordinator-observed wall)
    worker_run    the worker-process slice of ``run`` (excludes IPC)
    cache_probe   coordinator or agent result-cache lookup
    bank_attach   warm worker attaching the zero-copy workload bank
    agent_queue   dispatched job waiting inside a remote agent
    agent_run     attempt executing, agent-side clock (mapped)

plus instant marks ``result`` / ``retry`` / ``requeued`` / ``failed`` /
``cached``, and ``meta`` records carrying per-agent clock-offset
estimates.

**Clock sync.**  Local workers share the coordinator's
``CLOCK_MONOTONIC``, so their timestamps merge directly.  Remote agents
run their own monotonic clock; the coordinator estimates each agent's
offset from ping/pong round trips (:func:`estimate_clock_offset`,
Cristian's algorithm: the minimum-RTT sample bounds the error by
RTT/2) and maps agent timestamps onto its own timeline with
:func:`map_remote_time` before recording.  All spans therefore share
one time base and one merged trace.

Everything here is zero-cost when disabled: the shared
:data:`NULL_SPAN_LOG` swallows every call, mirroring the
``NULL_REGISTRY`` discipline, and no file is created.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.tracer import EventTracer

#: Version stamp on every spans.jsonl record.
SPANS_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Clock-offset estimation (coordinator <-> agent)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ClockSample:
    """One ping/pong round trip: local send/receive + remote clock."""

    sent: float      #: coordinator monotonic at ping send
    received: float  #: coordinator monotonic at pong receive
    remote: float    #: agent monotonic stamped inside the pong

    @property
    def rtt(self) -> float:
        return self.received - self.sent


def estimate_clock_offset(
    samples: Sequence[ClockSample],
) -> Tuple[float, float]:
    """``(offset, rtt)`` such that ``local = remote - offset``.

    Uses the minimum-RTT sample (ties broken by sample order, so the
    estimate is deterministic for a given sample list): the remote clock
    read happened within that round trip, so assuming it landed at the
    midpoint bounds the error by RTT/2 — the classic Cristian/NTP
    argument.  Raises ``ValueError`` on an empty sample list.
    """
    if not samples:
        raise ValueError("cannot estimate a clock offset from no samples")
    best = min(samples, key=lambda sample: sample.rtt)
    midpoint = best.sent + best.rtt / 2.0
    return best.remote - midpoint, best.rtt


def map_remote_time(remote_t: float, offset: float) -> float:
    """An agent-clock timestamp on the coordinator's monotonic timeline."""
    return remote_t - offset


# ----------------------------------------------------------------------
# Span recording
# ----------------------------------------------------------------------

class SpanLog:
    """Append-only orchestration-span stream for one run.

    Timestamps are coordinator ``time.monotonic()`` values; records
    store them relative to the log's epoch (``t=0`` at construction) so
    independent runs diff cleanly.  Thread-safe: the scheduling loop,
    the cluster reader threads and the heartbeat thread all record into
    one log.
    """

    enabled = True

    def __init__(self, path=None, clock=time.monotonic) -> None:
        self._path = path
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        self.records: List[dict] = []
        if path is not None:
            open(path, "w", encoding="utf-8").close()

    # -- time -----------------------------------------------------------

    def now(self) -> float:
        """The current coordinator-monotonic timestamp (absolute)."""
        return self._clock()

    def rel(self, t: float) -> float:
        """An absolute monotonic timestamp relative to the log epoch."""
        return t - self._epoch

    # -- recording ------------------------------------------------------

    def span(self, phase: str, t0: float, t1: float, key: str = "",
             job: str = "", index: Optional[int] = None,
             attempt: Optional[int] = None, agent: Optional[str] = None,
             **args) -> None:
        """One completed phase of one job attempt (absolute times)."""
        self._write({
            "event": "span",
            "phase": phase,
            "t0": round(self.rel(t0), 6),
            "t1": round(self.rel(max(t0, t1)), 6),
            "key": key,
            "job": job,
            "index": index,
            "attempt": attempt,
            "agent": agent,
            **({"args": args} if args else {}),
        })

    def mark(self, phase: str, t: Optional[float] = None, key: str = "",
             job: str = "", index: Optional[int] = None,
             attempt: Optional[int] = None, agent: Optional[str] = None,
             **args) -> None:
        """An instant event (result / retry / requeued / ...)."""
        stamp = self._clock() if t is None else t
        self._write({
            "event": "mark",
            "phase": phase,
            "t": round(self.rel(stamp), 6),
            "key": key,
            "job": job,
            "index": index,
            "attempt": attempt,
            "agent": agent,
            **({"args": args} if args else {}),
        })

    def meta(self, kind: str, **fields) -> None:
        """A non-span annotation (e.g. one agent's clock offset)."""
        self._write({"event": "meta", "kind": kind, **fields})

    def remote_phases(self, phases: Dict[str, Sequence[float]],
                      offset: float, key: str = "", job: str = "",
                      index: Optional[int] = None,
                      attempt: Optional[int] = None,
                      agent: Optional[str] = None) -> None:
        """Record agent/worker-side ``{phase: [t0, t1]}`` pairs.

        *offset* maps the remote clock onto the coordinator timeline
        (0.0 for local workers sharing CLOCK_MONOTONIC).
        """
        for phase, pair in sorted(phases.items()):
            try:
                t0, t1 = float(pair[0]), float(pair[1])
            except (TypeError, ValueError, IndexError):
                continue  # a malformed phase must never fail the run
            self.span(
                phase, map_remote_time(t0, offset),
                map_remote_time(t1, offset), key=key, job=job,
                index=index, attempt=attempt, agent=agent,
            )

    def _write(self, record: dict) -> None:
        record = {
            k: v for k, v in record.items() if v is not None and v != ""
        }
        record["v"] = SPANS_SCHEMA_VERSION
        with self._lock:
            self.records.append(record)
            if self._path is not None:
                with open(self._path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")


class _NullSpanLog:
    """Shared no-op span log — the default when fleet tracing is off."""

    enabled = False
    records: List[dict] = []

    def now(self) -> float:
        return 0.0

    def rel(self, t: float) -> float:
        return 0.0

    def span(self, *args, **kwargs) -> None:
        pass

    def mark(self, *args, **kwargs) -> None:
        pass

    def meta(self, *args, **kwargs) -> None:
        pass

    def remote_phases(self, *args, **kwargs) -> None:
        pass


#: Process-wide shared no-op span log.
NULL_SPAN_LOG = _NullSpanLog()


# ----------------------------------------------------------------------
# Fleet configuration (what the CLI hands the orchestrator)
# ----------------------------------------------------------------------

@dataclass
class FleetConfig:
    """Opt-in fleet-observability knobs for one orchestrated run.

    The default instance is inert: no spans, no status server, no new
    files in the run directory — byte-identical behaviour to a build
    without the subsystem.
    """

    #: Record orchestration spans to ``<run-dir>/spans.jsonl``.
    spans: bool = False
    #: Explicit spans path (overrides the run-dir default; required for
    #: span recording on non-durable runs).
    spans_path: Optional[object] = None
    #: Serve ``/status.json`` + ``/metrics`` on this port (0 = let the
    #: OS choose; the resolved URL is announced).  None disables.
    status_port: Optional[int] = None
    status_host: str = "127.0.0.1"
    #: Seconds between status-plane samples.
    sample_interval_s: float = 0.5
    #: Where the resolved status URL is announced (tests capture it).
    announce: Optional[object] = None

    @property
    def active(self) -> bool:
        return bool(self.spans) or self.status_port is not None


# ----------------------------------------------------------------------
# Merged Perfetto export
# ----------------------------------------------------------------------

def load_span_records(run_dir) -> List[dict]:
    """Parse ``<run-dir>/spans.jsonl`` (tolerating trailing garbage)."""
    import pathlib

    path = pathlib.Path(run_dir) / "spans.jsonl"
    if not path.exists():
        return []
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def crash_dump_index(run_dir) -> Dict[str, str]:
    """``{job key: latest crash-dump path}`` from the run manifest."""
    import pathlib

    path = pathlib.Path(run_dir) / "manifest.jsonl"
    dumps: Dict[str, str] = {}
    if not path.exists():
        return dumps
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if isinstance(entry, dict) and entry.get("crash_dump"):
            dumps[entry.get("key", "")] = entry["crash_dump"]
    return dumps


#: Microseconds per span-log second in the exported trace.  Perfetto's
#: absolute units are meaningless for orchestration (as for bus cycles
#: in the in-sim tracer); seconds-as-microseconds keeps digits readable.
_EXPORT_US_PER_S = 1_000_000.0


def export_fleet_trace(
    records: Iterable[dict],
    crash_dumps: Optional[Dict[str, str]] = None,
) -> dict:
    """Merge span records into one Chrome/Perfetto trace object.

    Reuses :class:`EventTracer` so the export format is exactly the
    in-simulation tracer's (``traceEvents`` array, ``X``/``i`` phases,
    metadata ``process_name`` entries).  Tracks (``tid``) are job
    indices; executors (the coordinator plus each named agent) become
    processes (``pid``) so Perfetto groups one lane per machine.
    Failed-job marks are cross-linked to their crash dumps by job key.
    """
    crash_dumps = crash_dumps or {}
    records = list(records)
    agents = sorted({
        r["agent"] for r in records
        if r.get("agent") and r.get("event") in ("span", "mark")
    })
    pids = {agent: index + 1 for index, agent in enumerate(agents)}

    tracer = EventTracer(capacity=max(len(records) * 2 + 16, 1024))
    tracks: Dict[Tuple[int, object], int] = {}

    def track_of(pid: int, record: dict) -> int:
        identity = record.get("index", record.get("key", 0))
        return tracks.setdefault((pid, identity), len(tracks))

    offsets: List[dict] = []
    for record in records:
        event = record.get("event")
        if event == "meta":
            if record.get("kind") == "agent_clock":
                offsets.append(record)
            continue
        pid = pids.get(record.get("agent"), 0)
        tid = record.get("index")
        tid = track_of(pid, record) if tid is None else int(tid)
        args = dict(record.get("args", ()))
        for carry in ("key", "job", "attempt", "agent"):
            if record.get(carry) is not None:
                args[carry] = record[carry]
        if record.get("phase") == "failed":
            dump = crash_dumps.get(record.get("key", ""))
            if dump:
                args["crash_dump"] = dump
        if event == "span":
            t0 = float(record.get("t0", 0.0)) * _EXPORT_US_PER_S
            t1 = float(record.get("t1", 0.0)) * _EXPORT_US_PER_S
            tracer.span(tid, record.get("phase", "span"), t0, t1, **args)
        elif event == "mark":
            stamp = float(record.get("t", 0.0)) * _EXPORT_US_PER_S
            tracer.instant(tid, record.get("phase", "mark"), stamp, **args)
        # pid is attached below (EventTracer stamps a constant pid)
        tracer.events[-1]["pid"] = pid

    trace = tracer.chrome_trace()
    # One process lane per executor, named like the in-sim tracer names
    # its single "memory-system" process.
    metadata = [{
        "name": "process_name", "ph": "M", "ts": 0.0,
        "pid": 0, "tid": 0, "args": {"name": "orchestrator"},
    }]
    for agent, pid in pids.items():
        metadata.append({
            "name": "process_name", "ph": "M", "ts": 0.0,
            "pid": pid, "tid": 0, "args": {"name": f"agent {agent}"},
        })
    trace["traceEvents"] = metadata + [
        e for e in trace["traceEvents"] if e.get("ph") != "M"
    ]
    trace["otherData"] = {
        "kind": "repro-fleet-spans",
        "spans_schema_version": SPANS_SCHEMA_VERSION,
        "records": len(records),
        "agents": agents,
        "clock_offsets": [
            {"agent": o.get("agent"), "offset_s": o.get("offset"),
             "rtt_s": o.get("rtt")}
            for o in offsets
        ],
    }
    return trace


def write_fleet_trace(run_dir, output=None) -> Tuple[object, dict]:
    """Export ``<run-dir>/spans.jsonl`` as Perfetto JSON; returns
    ``(path, trace)``."""
    import pathlib

    run_dir = pathlib.Path(run_dir)
    records = load_span_records(run_dir)
    trace = export_fleet_trace(records, crash_dump_index(run_dir))
    path = pathlib.Path(output) if output else run_dir / "fleet.trace.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return path, trace


__all__ = [
    "ClockSample",
    "FleetConfig",
    "NULL_SPAN_LOG",
    "SPANS_SCHEMA_VERSION",
    "SpanLog",
    "crash_dump_index",
    "estimate_clock_offset",
    "export_fleet_trace",
    "load_span_records",
    "map_remote_time",
    "write_fleet_trace",
]
