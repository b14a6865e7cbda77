"""Seeded, deterministic fault-injection plans.

A :class:`ChaosPlan` decides, at named *sites* threaded through the
orchestrator/cluster/cache planes, whether to inject a fault.  Every
decision is **content-addressed**: the verdict for ``(site, token)`` is
a pure function of the plan seed, the site name and the token (a stable
identifier such as a job cache key or ``label:attempt``), never of
wall-clock time, thread interleaving or call order.  Two runs of the
same grid under the same ``SPEC@seed`` therefore inject the exact same
faults at the exact same places — which is what makes the deliverable
invariant testable at all: a chaotic run must converge to the
byte-identical grid digest of a calm one.

Spec grammar (the ``--chaos`` flag and ``REPRO_CHAOS`` env var)::

    SPEC    := PROFILE ("," SITE "=" RATE)* ("@" SEED)?
    PROFILE := "default" | "heavy" | "off"

Examples: ``default@7``, ``default,worker.crash=0.5@1``,
``off,transport.corrupt=1.0@3`` (a single site at full rate).

Sites (rate = probability per decision token):

====================== ==================================================
``transport.corrupt``  flip one byte of an outgoing frame body (CRC catch)
``transport.truncate`` ship a partial frame, then sever the connection
``transport.delay``    deterministic sleep before an outgoing frame
``agent.drop``         coordinator drops the agent's connection at dispatch
``agent.hang``         agent stalls before serving (heartbeat-visible)
``worker.crash``       SIGKILL the worker right after an attempt launches
``worker.oom``         SIGTERM the worker (OOM-killer stand-in)
``worker.slow``        deterministic stall injected into an attempt
``cache.torn_read``    truncate the on-disk cache entry before reading it
``cache.disk_full``    ``ENOSPC`` raised inside ``ResultCache.put``
``manifest.torn_append`` torn (newline-less) fragment after a manifest row
====================== ==================================================

A run has one plan: a cluster run's coordinator also draws the agents'
faults and ships them on job frames.  Every injection is recorded once,
in :attr:`ChaosPlan.injections` and — when a fleet span log is bound —
as a ``chaos`` span mark, so ``repro trace`` and ``repro top`` show
exactly what chaos did to a run.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, List, Optional, Tuple

#: Every site a plan may inject at, in documentation order.
SITES = (
    "transport.corrupt",
    "transport.truncate",
    "transport.delay",
    "agent.drop",
    "agent.hang",
    "worker.crash",
    "worker.oom",
    "worker.slow",
    "cache.torn_read",
    "cache.disk_full",
    "manifest.torn_append",
)

#: Named rate profiles.  ``default`` exercises every recovery path a few
#: times over a pinned 36-point sweep without stalling CI: worker kills
#: retry, transport faults end an agent's link and requeue its jobs,
#: cache/manifest tears take the self-healing read paths.  ``agent.hang`` stays 0 by
#: default because recovering from a hang costs a full heartbeat timeout;
#: tests opt in explicitly with a short-heartbeat backend.
PROFILES: Dict[str, Dict[str, float]] = {
    "off": {},
    "default": {
        "transport.corrupt": 0.05,
        "transport.truncate": 0.03,
        "transport.delay": 0.10,
        "agent.drop": 0.03,
        "worker.crash": 0.06,
        "worker.oom": 0.03,
        "worker.slow": 0.08,
        "cache.torn_read": 0.10,
        "cache.disk_full": 0.05,
        "manifest.torn_append": 0.08,
    },
    "heavy": {
        "transport.corrupt": 0.15,
        "transport.truncate": 0.08,
        "transport.delay": 0.20,
        "agent.drop": 0.10,
        "worker.crash": 0.15,
        "worker.oom": 0.08,
        "worker.slow": 0.15,
        "cache.torn_read": 0.25,
        "cache.disk_full": 0.15,
        "manifest.torn_append": 0.20,
    },
}

#: Upper bound on an injected stall (transport.delay / worker.slow), so a
#: chaotic run is slower, never hung.
MAX_DELAY_S = 0.05

#: Sites drawn together for one frame send, one worker launch or (on an
#: agent) one job, in order; within a tuple the first site that fires
#: wins.
_WORKER = (("worker.slow",), ("worker.crash", "worker.oom"))
FAULT_GROUPS = {
    "transport": (("transport.delay",),
                  ("transport.corrupt", "transport.truncate")),
    "worker": _WORKER,
    "agent": (("agent.hang",),) + _WORKER,
}

#: Sites whose fault is a stall: ``faults`` maps them to its seconds.
_STALLS = ("transport.delay", "worker.slow")


class ChaosSpecError(ValueError):
    """A ``--chaos``/``REPRO_CHAOS`` spec string cannot be parsed."""


def _draw(seed: int, site: str, token: str) -> float:
    """The deterministic uniform draw in [0, 1) for one decision."""
    digest = hashlib.sha256(
        f"{seed}:{site}:{token}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class ChaosPlan:
    """One parsed fault-injection plan (seed + per-site rates)."""

    def __init__(self, rates: Dict[str, float], seed: int = 0,
                 spec: str = "") -> None:
        for site, rate in rates.items():
            if site not in SITES:
                raise ChaosSpecError(
                    f"unknown chaos site {site!r}; choose from "
                    f"{', '.join(SITES)}"
                )
            if not 0.0 <= float(rate) <= 1.0:
                raise ChaosSpecError(
                    f"chaos rate for {site} must be in [0, 1], got {rate}"
                )
        self.rates = {s: float(r) for s, r in rates.items() if r > 0.0}
        self.seed = int(seed)
        self.spec = spec or self.describe()
        #: Every injection this plan performed, in decision order:
        #: ``(site, token)`` pairs.  Appending is locked — decisions come
        #: from reader/heartbeat/scheduler threads concurrently.
        self.injections: List[Tuple[str, str]] = []
        self.counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._spans = None

    # -- wiring ---------------------------------------------------------

    def bind_spans(self, spans) -> None:
        """Record future injections as ``chaos`` marks in *spans*."""
        self._spans = spans

    def describe(self) -> str:
        sites = ",".join(
            f"{site}={self.rates[site]:g}"
            for site in SITES if site in self.rates
        )
        return f"off{',' if sites else ''}{sites}@{self.seed}"

    @property
    def active(self) -> bool:
        return bool(self.rates)

    # -- decisions ------------------------------------------------------

    def should(self, site: str, token: str) -> bool:
        """Deterministically decide (and record) one injection.

        ``token`` must be stable across runs — a job cache key with its
        dispatch count, a ``label:attempt`` pair — never a wall-clock.
        """
        rate = self.rates.get(site, 0.0)
        if rate <= 0.0 or _draw(self.seed, site, token) >= rate:
            return False
        with self._lock:
            self.injections.append((site, token))
            self.counts[site] = self.counts.get(site, 0) + 1
        if self._spans is not None:
            self._spans.mark("chaos", site=site, token=token)
        return True

    def faults(self, group: str, token: str) -> Dict[str, object]:
        """Draw one :data:`FAULT_GROUPS` group for *token*.

        Returns the sites that fired — a stall site mapped to its
        seconds, any other to True — or ``{}`` when none did.
        """
        fired: Dict[str, object] = {}
        for sites in FAULT_GROUPS[group]:
            for site in sites:
                if self.should(site, token):
                    fired[site] = (self.delay_s(site, token)
                                   if site in _STALLS else True)
                    break
        return fired

    def delay_s(self, site: str, token: str) -> float:
        """Deterministic stall duration in ``(0, MAX_DELAY_S]``."""
        return MAX_DELAY_S * (0.2 + 0.8 * _draw(self.seed, site + ".d",
                                                token))

    def summary(self) -> Dict[str, object]:
        with self._lock:
            return {
                "spec": self.spec,
                "seed": self.seed,
                "injections": sum(self.counts.values()),
                "by_site": dict(sorted(self.counts.items())),
            }


def parse_chaos(spec: str) -> Optional[ChaosPlan]:
    """Parse a ``--chaos`` spec; ``"off"`` (no overrides) returns None."""
    text = (spec or "").strip()
    if not text:
        return None
    seed = 0
    if "@" in text:
        text, _, seed_text = text.rpartition("@")
        try:
            seed = int(seed_text)
        except ValueError:
            raise ChaosSpecError(
                f"chaos seed must be an integer, got {seed_text!r}"
            ) from None
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ChaosSpecError(f"empty chaos spec {spec!r}")
    profile = parts[0]
    if "=" in profile:
        raise ChaosSpecError(
            f"chaos spec must start with a profile name "
            f"({', '.join(sorted(PROFILES))}), got {profile!r}"
        )
    if profile not in PROFILES:
        raise ChaosSpecError(
            f"unknown chaos profile {profile!r}; choose from "
            f"{', '.join(sorted(PROFILES))}"
        )
    rates = dict(PROFILES[profile])
    for override in parts[1:]:
        site, sep, rate_text = override.partition("=")
        if not sep:
            raise ChaosSpecError(
                f"chaos override must look like site=rate, got {override!r}"
            )
        try:
            rates[site.strip()] = float(rate_text)
        except ValueError:
            raise ChaosSpecError(
                f"chaos rate must be a number, got {rate_text!r}"
            ) from None
    plan = ChaosPlan(rates, seed=seed, spec=spec.strip())
    return plan if plan.active else None


def chaos_from_env(environ=None) -> Optional[ChaosPlan]:
    """The plan named by ``REPRO_CHAOS``, or None when unset/off."""
    import os

    value = (environ if environ is not None else os.environ).get(
        "REPRO_CHAOS", ""
    )
    return parse_chaos(value)


__all__ = [
    "FAULT_GROUPS",
    "MAX_DELAY_S",
    "PROFILES",
    "SITES",
    "ChaosPlan",
    "ChaosSpecError",
    "chaos_from_env",
    "parse_chaos",
]
