"""Agent launching: loopback subprocesses and SSH remote starts.

Host specifications accepted by ``repro cluster sweep --hosts``:

* ``HOST:PORT``          — dial an agent somebody already started;
* ``local``              — launch a loopback agent subprocess on this
                           machine (port chosen by the OS) and dial it;
* ``ssh://[USER@]HOST``  — run ``python -m repro cluster agent`` on the
                           remote host over SSH and dial the announced
                           port (requires passwordless SSH and the same
                           source tree checked out remotely — the
                           handshake's code-fingerprint gate enforces
                           the "same tree" half).

Every launcher works the same way: the agent process announces
``repro-agent listening on HOST:PORT`` on stdout, the launcher scrapes
that line for the bound port, and :func:`repro.cluster.coordinator.pair_agent`
dials it.  Auto-launched agents run with ``--once``-off and are told to
exit (``shutdown`` message) when the coordinator's backend shuts down.
"""

from __future__ import annotations

import re
import subprocess
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cluster.protocol import ClusterError

_ANNOUNCE = re.compile(
    r"repro-agent listening on (?P<host>[^\s:]+):(?P<port>\d+)"
)

#: Seconds to wait for a launched agent to announce its port.
LAUNCH_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class HostSpec:
    """One parsed ``--hosts`` entry."""

    kind: str  #: "dial" | "local" | "ssh"
    host: str = ""
    port: int = 0
    ssh_target: str = ""  #: ``user@host`` for kind="ssh"

    def describe(self) -> str:
        if self.kind == "dial":
            return f"{self.host}:{self.port}"
        if self.kind == "local":
            return "local"
        return f"ssh://{self.ssh_target}"


def parse_host(text: str) -> HostSpec:
    """Parse one host entry (see module docstring for the grammar)."""
    if text == "local":
        return HostSpec(kind="local")
    if text.startswith("ssh://"):
        target = text[len("ssh://"):]
        if not target:
            raise ValueError(f"empty ssh target in {text!r}")
        return HostSpec(kind="ssh", ssh_target=target)
    host, _, port_text = text.rpartition(":")
    if host and port_text.isdigit():
        return HostSpec(kind="dial", host=host, port=int(port_text))
    raise ValueError(
        f"host spec {text!r} is not HOST:PORT, 'local' or 'ssh://…'"
    )


def parse_hosts(entries: Sequence[str]) -> List[HostSpec]:
    return [parse_host(entry) for entry in entries]


def _agent_argv(jobs: int, pool: str,
                listen: str = "127.0.0.1:0") -> List[str]:
    return ["-m", "repro", "cluster", "agent", "--listen", listen,
            "--jobs", str(jobs), "--pool", pool]


def _scrape_port(process: subprocess.Popen,
                 label: str) -> Tuple[str, int]:
    """Read the agent's announce line from its stdout pipe."""
    assert process.stdout is not None
    line = process.stdout.readline()
    deadline_hit = not line
    match = _ANNOUNCE.search(line or "")
    if match is None:
        process.kill()
        process.wait()
        detail = "closed stdout" if deadline_hit else f"said {line!r}"
        raise ClusterError(
            f"launched agent ({label}) never announced its port: {detail}"
        )
    return match.group("host"), int(match.group("port"))


def launch_local_agent(
    jobs: int = 1,
    pool: str = "warm",
) -> Tuple[subprocess.Popen, str, int]:
    """Start one loopback agent subprocess; returns (proc, host, port).

    The child inherits this interpreter and environment, so
    ``PYTHONPATH=src``-style invocations carry over.
    """
    process = subprocess.Popen(
        [sys.executable] + _agent_argv(jobs, pool),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    host, port = _scrape_port(process, "local")
    return process, host, port


def launch_ssh_agent(
    spec: HostSpec,
    jobs: int = 1,
    pool: str = "warm",
    python: str = "python3",
    ssh_command: Sequence[str] = ("ssh", "-o", "BatchMode=yes"),
) -> Tuple[subprocess.Popen, str, int]:
    """Start an agent on *spec*'s host over SSH; returns (proc, host, port).

    The remote agent binds ``0.0.0.0:0`` and announces the chosen port
    through the SSH pipe; the coordinator then dials the ssh target's
    hostname at that port directly (the data path does not tunnel
    through SSH — agents must be reachable on the announced port).
    """
    remote = " ".join(
        [python] + _agent_argv(jobs, pool, listen="0.0.0.0:0")
    )
    process = subprocess.Popen(
        list(ssh_command) + [spec.ssh_target, remote],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    _bound_host, port = _scrape_port(process, spec.describe())
    hostname = spec.ssh_target.rpartition("@")[2]
    return process, hostname, port


def resolve_hosts(
    specs: Sequence[HostSpec],
    jobs: int = 1,
    pool: str = "warm",
) -> List[Tuple[str, int, Optional[subprocess.Popen]]]:
    """Turn host specs into dialable ``(host, port, owned_process)``.

    ``owned_process`` is the Popen of an agent this call launched (the
    backend shuts it down at the end of the run) or ``None`` for agents
    that were already running.
    """
    resolved: List[Tuple[str, int, Optional[subprocess.Popen]]] = []
    try:
        for spec in specs:
            if spec.kind == "dial":
                resolved.append((spec.host, spec.port, None))
            elif spec.kind == "local":
                proc, host, port = launch_local_agent(jobs=jobs, pool=pool)
                resolved.append((host, port, proc))
            else:
                proc, host, port = launch_ssh_agent(spec, jobs=jobs,
                                                    pool=pool)
                resolved.append((host, port, proc))
    except BaseException:
        for _host, _port, proc in resolved:
            if proc is not None:
                proc.kill()
                proc.wait()
        raise
    return resolved


__all__ = [
    "LAUNCH_TIMEOUT_S",
    "HostSpec",
    "launch_local_agent",
    "launch_ssh_agent",
    "parse_host",
    "parse_hosts",
    "resolve_hosts",
]
