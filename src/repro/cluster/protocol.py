"""The coordinator <-> agent message vocabulary and handshake rules.

All messages are flat JSON objects with a ``kind`` field, shipped as
length-prefixed frames (:mod:`repro.cluster.transport`).  The protocol
is deliberately small:

Coordinator -> agent
    ``hello``     open a session (protocol version + code fingerprint)
    ``job``       dispatch one grid point (id + JobSpec payload; a
                  ``chaos`` directive when the coordinator's plan drew
                  agent-side faults for this dispatch)
    ``cancel``    stop one in-flight job (per-job timeout)
    ``ping``      heartbeat probe
    ``observe``   advisory: flip fleet span timing for this session
    ``bye``       end the session (agent keeps listening)
    ``shutdown``  end the session AND exit the agent process

Agent -> coordinator
    ``welcome``      handshake accepted (slots, name, fingerprints,
                     agent monotonic clock for offset estimation)
    ``reject``       handshake refused (version/fingerprint mismatch)
    ``result``       one job's full ``SimulationResult`` payload
                     (+ agent-side phase timestamps when observed;
                     ``cached`` marks an agent-cache hit)
    ``error``        one job failed (error + traceback + RNG snapshot)
    ``pong``         heartbeat reply (echoes the agent monotonic clock,
                     the coordinator's clock-offset sample source)
    ``status_reply`` agent introspection for ``repro cluster status``

Handshake contract: a session only opens when both ends run the same
``PROTOCOL_VERSION`` *and* the same :func:`code_fingerprint`.  The
version gate keeps incompatible message vocabularies from talking past
each other; the fingerprint gate is the same guarantee the result cache
makes — an agent running different simulator source would return
results the coordinator's grid digest could never reproduce.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Bump on any message-vocabulary change; mismatched ends refuse to pair.
#: v2: fleet observability — ``observe`` advisory, monotonic ``clock``
#: fields on ``welcome``/``pong``, optional ``timing`` on outcomes.
#: v3: hardened framing — every frame carries a CRC32 body checksum
#: (:mod:`repro.cluster.transport`); a v2 peer cannot even parse a v3
#: frame, so the version gate is enforced by the wire format itself.
#: v4: one chaos plan per run — a ``job`` frame may carry a ``chaos``
#: directive (the agent-side faults the coordinator drew), and agents
#: no longer arm a plan of their own.
PROTOCOL_VERSION = 4


class ClusterError(RuntimeError):
    """Base class for cluster-layer failures."""


class HandshakeError(ClusterError):
    """The two ends cannot pair (version or code fingerprint mismatch)."""


# ----------------------------------------------------------------------
# Message constructors (kept as functions so every field is spelled once)
# ----------------------------------------------------------------------

def hello(code: str) -> dict:
    return {"kind": "hello", "protocol": PROTOCOL_VERSION, "code": code,
            "role": "coordinator"}


def welcome(code: str, name: str, slots: int, pid: int,
            clock: Optional[float] = None) -> dict:
    out = {"kind": "welcome", "protocol": PROTOCOL_VERSION, "code": code,
           "name": name, "slots": slots, "pid": pid}
    if clock is not None:
        # The agent's time.monotonic() at handshake time: the hello ->
        # welcome round trip doubles as the first clock-offset sample.
        out["clock"] = clock
    return out


def reject(reason: str) -> dict:
    return {"kind": "reject", "reason": reason}


def job(job_id: str, key: str, payload: dict,
        chaos: Optional[dict] = None) -> dict:
    out = {"kind": "job", "id": job_id, "key": key, "job": payload}
    if chaos:  # calm frames carry no directive
        out["chaos"] = chaos
    return out


def cancel(job_id: str) -> dict:
    return {"kind": "cancel", "id": job_id}


def result(job_id: str, key: str, payload: dict, agent: str,
           wall_s: float, cached: bool,
           timing: Optional[dict] = None) -> dict:
    out = {"kind": "result", "id": job_id, "key": key, "result": payload,
           "agent": agent, "wall_s": round(wall_s, 6), "cached": cached}
    if timing is not None:
        out["timing"] = timing
    return out


def error(job_id: str, key: str, agent: str, message: str,
          traceback_text: Optional[str] = None,
          rng: Optional[dict] = None,
          fastpath: Optional[bool] = None,
          timing: Optional[dict] = None) -> dict:
    out: Dict[str, object] = {
        "kind": "error", "id": job_id, "key": key, "agent": agent,
        "error": message,
    }
    if traceback_text is not None:
        out["traceback"] = traceback_text
    if rng is not None:
        out["rng"] = rng
    if fastpath is not None:
        out["fastpath"] = fastpath
    if timing is not None:
        out["timing"] = timing
    return out


def ping(sequence: int) -> dict:
    return {"kind": "ping", "seq": sequence}


def pong(sequence: int, clock: Optional[float] = None) -> dict:
    out = {"kind": "pong", "seq": sequence}
    if clock is not None:
        out["clock"] = clock
    return out


def observe(spans: bool) -> dict:
    """Advisory: the coordinator wants agent-side span timestamps.

    Sent once per session after pairing when fleet tracing is on.
    Agents that predate the vocabulary would ignore unknown kinds; the
    handshake version gate means in practice both ends always match.
    """
    return {"kind": "observe", "spans": bool(spans)}


def bye() -> dict:
    return {"kind": "bye"}


def shutdown() -> dict:
    return {"kind": "shutdown"}


def status_request() -> dict:
    return {"kind": "hello", "protocol": PROTOCOL_VERSION, "code": None,
            "role": "status"}


def status_reply(name: str, slots: int, inflight: int, served: int,
                 cache_hits: int, pid: int) -> dict:
    return {"kind": "status_reply", "name": name, "slots": slots,
            "inflight": inflight, "served": served,
            "cache_hits": cache_hits, "pid": pid,
            "protocol": PROTOCOL_VERSION}


# ----------------------------------------------------------------------
# Handshake validation (used by both ends)
# ----------------------------------------------------------------------

def check_peer(message: dict, expected_kind: str,
               local_code: Optional[str]) -> None:
    """Validate the other end's opening message or raise HandshakeError.

    ``local_code=None`` skips the fingerprint comparison (status probes
    don't execute jobs, so code identity is irrelevant to them).
    """
    kind = message.get("kind")
    if kind == "reject":
        raise HandshakeError(
            f"peer rejected the session: {message.get('reason')}"
        )
    if kind != expected_kind:
        raise HandshakeError(
            f"expected {expected_kind!r} during handshake, got {kind!r}"
        )
    peer_protocol = message.get("protocol")
    if peer_protocol != PROTOCOL_VERSION:
        raise HandshakeError(
            f"protocol version mismatch: local {PROTOCOL_VERSION}, "
            f"peer {peer_protocol}"
        )
    if local_code is not None:
        peer_code = message.get("code")
        if peer_code != local_code:
            raise HandshakeError(
                "code fingerprint mismatch: the peer runs different "
                f"simulator source (local {str(local_code)[:12]}…, peer "
                f"{str(peer_code)[:12]}…); results would not be "
                "reproducible — update both ends to the same tree"
            )


def mismatch_reason(message: dict, local_code: str) -> Optional[str]:
    """Why a ``hello`` cannot be accepted, or ``None`` if it can."""
    if message.get("kind") != "hello":
        return f"expected 'hello', got {message.get('kind')!r}"
    if message.get("protocol") != PROTOCOL_VERSION:
        return (f"protocol version mismatch: agent {PROTOCOL_VERSION}, "
                f"coordinator {message.get('protocol')}")
    if message.get("role") == "coordinator" and message.get("code") != local_code:
        return "code fingerprint mismatch"
    return None


__all__ = [
    "PROTOCOL_VERSION",
    "ClusterError",
    "HandshakeError",
    "bye",
    "cancel",
    "check_peer",
    "error",
    "hello",
    "job",
    "mismatch_reason",
    "observe",
    "ping",
    "pong",
    "reject",
    "result",
    "shutdown",
    "status_reply",
    "status_request",
    "welcome",
]
