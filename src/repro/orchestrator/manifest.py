"""Resumable run manifests.

A *run directory* is the durable record of one orchestrated sweep::

    <run-dir>/run.json         grid spec + settings (written once)
    <run-dir>/manifest.jsonl   append-only per-job event log
    <run-dir>/results/<key>.json   SimulationResult payloads
    <run-dir>/telemetry.jsonl  structured progress records

The manifest is an event log, not a mutable table: every attempt and
terminal status is appended as one JSON line, and resuming replays the
log to find jobs whose last status is terminal (``done`` / ``cached``).
``failed`` is terminal for a single run but *not* across resumes — a
resume retries failed points, which is the whole point of resuming.

Crash safety: a run killed mid-append leaves a torn (newline-less)
trailing fragment.  :meth:`RunManifest.recover` — called by the
orchestrator before replaying the log — truncates the file back to the
last complete record and reports how many bytes were dropped, so a
resume starts from a clean log instead of choking on (or silently
merging into) the fragment.  :meth:`RunManifest.record` performs the
same self-healing before every append for the un-resumed case.  The
``manifest.torn_append`` chaos site exercises this by appending a torn
fragment after a real record.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Dict, Optional

from repro.sim.simulator import SimulationResult

SPEC_NAME = "run.json"
MANIFEST_NAME = "manifest.jsonl"
RESULTS_DIR = "results"

#: Statuses that a resume does not re-run.
COMPLETED_STATUSES = frozenset({"done", "cached"})


class RunManifest:
    """Reads and appends the durable state of one run directory."""

    def __init__(self, run_dir) -> None:
        self.run_dir = pathlib.Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        (self.run_dir / RESULTS_DIR).mkdir(exist_ok=True)
        self._manifest_path = self.run_dir / MANIFEST_NAME
        #: Optional bound :class:`repro.chaos.ChaosPlan` (None = inert).
        self.chaos = None
        #: Bytes dropped by torn-tail recovery so far (telemetry note).
        self.recovered_bytes = 0

    # -- run spec -------------------------------------------------------

    def write_spec(self, spec: Dict[str, object]) -> None:
        """Persist the grid spec once; resumes keep the original."""
        path = self.run_dir / SPEC_NAME
        if not path.exists():
            path.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")

    def read_spec(self) -> Optional[Dict[str, object]]:
        path = self.run_dir / SPEC_NAME
        if not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    # -- event log ------------------------------------------------------

    def record(self, entry: Dict[str, object]) -> None:
        """Append one event line (flushed immediately for crash safety).

        Self-healing: if a previous process died mid-append, the file
        ends in a torn fragment; appending after it would merge two
        records into one undecodable line and silently lose *this*
        entry.  The tail is truncated away first.
        """
        self.recover()
        line = json.dumps(entry, sort_keys=True) + "\n"
        if self.chaos is not None and self.chaos.should(
                "manifest.torn_append",
                f"{entry.get('key')}:{entry.get('status')}"):
            # A torn *extra* fragment after the real record: the next
            # append (or a resume) must truncate it back out.
            line += json.dumps(entry, sort_keys=True)[: max(
                1, len(line) // 2)]
        with open(self._manifest_path, "a", encoding="utf-8") as handle:
            handle.write(line)

    def recover(self) -> int:
        """Truncate a torn trailing record; returns bytes dropped (0 = clean).

        Crash-mid-append leaves a final line with no terminating
        newline.  Everything after the last ``\\n`` is dropped so the
        log ends on a complete record; the cumulative count is surfaced
        in the run's telemetry summary as a recovery note.
        """
        try:
            size = self._manifest_path.stat().st_size
        except OSError:
            return 0
        if size == 0:
            return 0
        with open(self._manifest_path, "rb+") as handle:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) == b"\n":
                return 0
            # Walk back to the last newline (bounded chunks, not a full
            # file read: manifests can be long-lived).
            position = size
            keep = 0
            chunk = 4096
            while position > 0:
                step = min(chunk, position)
                handle.seek(position - step)
                data = handle.read(step)
                newline = data.rfind(b"\n")
                if newline != -1:
                    keep = position - step + newline + 1
                    break
                position -= step
            dropped = size - keep
            handle.truncate(keep)
        self.recovered_bytes += dropped
        return dropped

    def job_statuses(self) -> Dict[str, str]:
        """Last recorded status per job key (replaying the event log)."""
        statuses: Dict[str, str] = {}
        if not self._manifest_path.exists():
            return statuses
        with open(self._manifest_path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue  # torn tail write from a killed run
                key = entry.get("key")
                status = entry.get("status")
                if key and status:
                    statuses[key] = status
        return statuses

    def completed_keys(self) -> Dict[str, str]:
        """Keys a resume can skip, with their terminal status."""
        return {
            key: status
            for key, status in self.job_statuses().items()
            if status in COMPLETED_STATUSES
        }

    # -- per-job results ------------------------------------------------

    def result_path(self, key: str) -> pathlib.Path:
        return self.run_dir / RESULTS_DIR / f"{key}.json"

    def store_result(self, key: str, result: SimulationResult) -> None:
        self.result_path(key).write_text(
            json.dumps(result.to_dict(), sort_keys=True), encoding="utf-8"
        )

    def load_result(self, key: str) -> Optional[SimulationResult]:
        path = self.result_path(key)
        try:
            return SimulationResult.from_dict(
                json.loads(path.read_text(encoding="utf-8"))
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None


__all__ = ["COMPLETED_STATUSES", "RunManifest",
           "MANIFEST_NAME", "RESULTS_DIR", "SPEC_NAME"]
