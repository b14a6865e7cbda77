"""``repro.cluster`` — distributed sweep execution over remote agents.

The cluster subsystem turns N machines into one orchestrator pool:

* :mod:`repro.cluster.transport` — length-prefixed JSON frames over TCP;
* :mod:`repro.cluster.protocol` — the message vocabulary and the
  handshake (protocol version + code fingerprint must match);
* :mod:`repro.cluster.agent` — the remote worker process
  (``repro cluster agent --listen HOST:PORT``), serving jobs through
  the same local warm pool single-machine sweeps use, and answering
  keys its optional local result cache holds without simulating;
* :mod:`repro.cluster.coordinator` — :class:`ClusterBackend`, a drop-in
  execution backend for ``Orchestrator.run`` with heartbeats and
  dead-agent detection that hands a lost agent's jobs back to the
  orchestrator's requeue path;
* :mod:`repro.cluster.ssh` — loopback and SSH agent launchers.

See docs/CLUSTER.md for the protocol and failure model.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.coordinator import (
    AgentLink,
    ClusterBackend,
    NoAgentsError,
    agent_status,
    pair_agent,
)
from repro.cluster.protocol import (
    PROTOCOL_VERSION,
    ClusterError,
    HandshakeError,
)
from repro.cluster.ssh import HostSpec, parse_hosts, resolve_hosts


def connect_cluster(
    hosts: Sequence[str],
    agent_jobs: int = 1,
    agent_pool: str = "warm",
    **backend_kwargs,
) -> ClusterBackend:
    """Resolve, launch and pair every host; return the live backend.

    *hosts* entries follow :func:`repro.cluster.ssh.parse_host` grammar
    (``HOST:PORT``, ``local``, ``ssh://user@host``).  *agent_jobs* /
    *agent_pool* configure agents this call launches (already-running
    agents keep their own settings); remaining keyword arguments go to
    :class:`ClusterBackend`.
    """
    resolved = resolve_hosts(
        parse_hosts(hosts), jobs=agent_jobs, pool=agent_pool,
    )
    links = []
    try:
        for host, port, process in resolved:
            links.append(pair_agent(host, port, process=process))
    except BaseException:
        for link in links:
            link.channel.close()
        for _host, _port, process in resolved:
            if process is not None:
                process.kill()
                process.wait()
        raise
    return ClusterBackend(links, **backend_kwargs)


__all__ = [
    "PROTOCOL_VERSION",
    "AgentLink",
    "ClusterBackend",
    "ClusterError",
    "HandshakeError",
    "HostSpec",
    "NoAgentsError",
    "agent_status",
    "connect_cluster",
    "pair_agent",
    "parse_hosts",
    "resolve_hosts",
]
