"""The single-run fast path: same results, fewer Python cycles.

This package concentrates every optimisation that makes one simulation
faster *without changing its output*:

* size-only compressibility classifiers for BDI and FPC
  (:mod:`repro.fastpath.classifiers`) — the compressed size and the
  Metadata-Header fit are computed without materialising a bitstream, so
  the full encoders only run when the stored image is actually needed
  (BLEM write paths and the data-integrity verifier);
* a memoised per-address scrambler keystream cache
  (:class:`repro.scramble.DataScrambler`) — the keystream is a pure
  function of (seed, address);
* an incremental FR-FCFS candidate cache with per-(rank, bank) bucket
  invalidation and event-horizon skipping
  (:class:`repro.dram.channel.Channel`);
* one registry of pure memos (:func:`memo`) that warm sweep workers
  share across jobs with a single switch (:func:`share_memos`);
* the profiling harness (:mod:`repro.fastpath.bench` and the
  ``repro profile`` CLI subcommand) that proves the above.

The fast path is **on by default** and must be *bit-identical* to the
slow path: ``tests/test_fastpath.py`` enforces equality of
``SimulationResult.to_dict()`` with the fast path on and off, and
hypothesis differential tests pin the classifiers to the full codecs.

Control (a :class:`Gate`, shared with :mod:`repro.kernels`):

* environment: ``REPRO_FASTPATH=0`` (or ``false``/``off``) disables it
  process-wide before import;
* code: :func:`set_enabled`, or the :func:`overridden` context manager
  for scoped toggling (used by the differential tests and the
  ``repro profile --fastpath off`` flag).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, Optional

__all__ = [
    "CacheCounters",
    "Gate",
    "MEMO_ENTRIES",
    "MEMO_FINGERPRINTS",
    "SchedulerCounters",
    "enabled",
    "memo",
    "overridden",
    "set_enabled",
    "share_memos",
]


class Gate:
    """A process-wide on/off switch, on unless its environment variable
    reads ``0``/``false``/``off``/``no`` when the gate is built.

    Serves ``REPRO_FASTPATH`` here and ``REPRO_VECTOR`` in
    :mod:`repro.kernels`.  Components read the flag when they are built
    (or at a batch boundary), so flipping it mid-simulation never mixes
    the two modes within one run.
    """

    def __init__(self, env_var: str) -> None:
        raw = os.environ.get(env_var, "1").strip().lower()
        self._on = raw not in ("0", "false", "off", "no")

    def enabled(self) -> bool:
        """Whether new components should take the gated path."""
        return self._on

    def set_enabled(self, value: bool) -> None:
        """Globally enable/disable the gated path for components built
        later."""
        self._on = bool(value)

    @contextmanager
    def overridden(self, value: bool) -> Iterator[None]:
        """Scoped :meth:`set_enabled` (restores the previous value on
        exit)."""
        previous = self._on
        self._on = bool(value)
        try:
            yield
        finally:
            self._on = previous


_gate = Gate("REPRO_FASTPATH")
enabled = _gate.enabled
set_enabled = _gate.set_enabled
overridden = _gate.overridden


# ----------------------------------------------------------------------
# Pure memos
#
# Every memo below maps a key to a pure function of that key under its
# owner's configuration (the *fingerprint*).  Two owners with equal
# fingerprints would therefore compute equal entries, so they may share
# one dict: a shared entry is exactly the value the owner would have
# computed itself.  Warm sweep workers turn sharing on, so the second
# job on a workload starts with the first one's entries; every other
# process keeps one private memo per owner.
# ----------------------------------------------------------------------

#: Capacity of each memo; owners clear a memo wholesale when it is full
#: (entries are pure, so the eviction policy is invisible to results).
#: Working sets in the bundled workloads are a few thousand distinct
#: lines, which this covers while bounding each memo's memory.
MEMO_ENTRIES = 65536

#: Shared memos the registry keeps per memo name; a new fingerprint past
#: this starts that name over.  A warm worker serving many seeds builds
#: data models (and so memo fingerprints) per (profile, seed), so without
#: the bound it would keep every model's memos until it recycles.
MEMO_FINGERPRINTS = 16

#: ``name -> {fingerprint -> memo}`` while sharing is on, else ``None``.
_shared_memos: Optional[Dict[str, Dict[Hashable, dict]]] = None


def share_memos(on: bool) -> None:
    """Share pure memos between same-fingerprint owners built later
    (``True``), or give every owner its own again and drop the shared
    entries (``False``)."""
    global _shared_memos
    if not on:
        _shared_memos = None
    elif _shared_memos is None:
        _shared_memos = {}


def memo(name: str, fingerprint: Hashable) -> dict:
    """The memo an owner should use: the process-wide one for
    ``(name, fingerprint)`` while sharing is on, else a fresh private
    dict.  Starting a name over drops its shared memos from the
    registry only; owners already holding one keep using it."""
    if _shared_memos is None:
        return {}
    memos = _shared_memos.setdefault(name, {})
    shared = memos.get(fingerprint)
    if shared is None:
        if len(memos) >= MEMO_FINGERPRINTS:
            memos.clear()
        shared = memos[fingerprint] = {}
    return shared


# ----------------------------------------------------------------------
# Perf counters
#
# Every fastpath cache exposes one of these; the simulator aggregates
# them into ``SimulationResult.perf`` (a non-serialised attribute — perf
# telemetry must never leak into the result payload, which is required
# to be byte-identical with the fast path on and off).
# ----------------------------------------------------------------------


@dataclass
class CacheCounters:
    """Hit/miss accounting for one memoisation cache."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 6),
        }


@dataclass
class SchedulerCounters:
    """FR-FCFS incremental-cache accounting for one channel."""

    #: full best-candidate computations (version-cache misses)
    computes: int = 0
    #: per-bucket candidate cache hits/misses inside those computes
    bucket: CacheCounters = field(default_factory=CacheCounters)
    #: ``advance`` calls answered by the event-horizon skip
    horizon_skips: int = 0
    #: ``advance`` calls that ran the full issue loop
    advances: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "computes": self.computes,
            "bucket": self.bucket.to_dict(),
            "horizon_skips": self.horizon_skips,
            "advances": self.advances,
        }

    def merge(self, other: "SchedulerCounters") -> None:
        self.computes += other.computes
        self.bucket.hits += other.bucket.hits
        self.bucket.misses += other.bucket.misses
        self.horizon_skips += other.horizon_skips
        self.advances += other.advances
