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
  execution backend for ``Orchestrator.run`` with heartbeats,
  dead-agent re-dispatch and a reconnect circuit breaker;
* :mod:`repro.cluster.ssh` — loopback and SSH agent launchers.

See docs/CLUSTER.md for the protocol and failure model.
"""

from __future__ import annotations

from typing import Optional, Sequence

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
    agent_cache_dir=None,
    **backend_kwargs,
) -> ClusterBackend:
    """Resolve, launch and pair every host; return the live backend.

    *hosts* entries follow :func:`repro.cluster.ssh.parse_host` grammar
    (``HOST:PORT``, ``local``, ``ssh://user@host``).  *agent_jobs* /
    *agent_pool* / *agent_cache_dir* configure agents this call launches
    (already-running agents keep their own settings); remaining keyword
    arguments go to :class:`ClusterBackend`.
    """
    resolved = resolve_hosts(
        parse_hosts(hosts), jobs=agent_jobs, pool=agent_pool,
        cache_dir=agent_cache_dir,
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


def run_cluster_sweep(
    benchmarks,
    systems,
    hosts: Sequence[str],
    seeds=(2018,),
    scale=None,
    agent_jobs: int = 1,
    cache_dir=None,
    run_dir=None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    progress: bool = False,
    obs=None,
    chaos=None,
    **cluster_kwargs,
):
    """``run_sweep`` over a cluster of agents instead of local workers.

    Mirrors :func:`repro.sim.sweep.run_sweep` — same grid semantics,
    manifests, telemetry and CSV — with execution dispatched to *hosts*.
    The worker count is the cluster's total slot count.
    """
    from repro.sim.runner import FAST_SCALE
    from repro.sim.sweep import run_sweep

    backend = connect_cluster(hosts, agent_jobs=agent_jobs, **cluster_kwargs)
    return run_sweep(
        benchmarks=benchmarks,
        systems=systems,
        seeds=seeds,
        scale=scale if scale is not None else FAST_SCALE,
        jobs=max(1, backend.total_slots()),
        cache_dir=cache_dir,
        run_dir=run_dir,
        timeout_s=timeout_s,
        retries=retries,
        progress=progress,
        obs=obs,
        chaos=chaos,
        pool=backend,
    )


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
    "run_cluster_sweep",
]
