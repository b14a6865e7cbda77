"""Checksummed length-prefixed JSON framing over TCP sockets.

Every cluster message is one *frame*: a 4-byte big-endian length prefix,
a 4-byte big-endian CRC32 of the body (since protocol v3), then that many
bytes of UTF-8 JSON.  Framing keeps the protocol trivially inspectable
(``tcpdump`` + ``json.loads``) and makes partial reads unambiguous: a
reader either has a whole message or keeps reading.  The checksum turns
silent body corruption — a flipped bit on a bad NIC, a buggy middlebox —
into a loud :class:`ChecksumError` the coordinator answers by ending
the agent's link and requeueing its jobs, never a hung sweep delivering
a wrong result.

:class:`FrameChannel` wraps one connected socket with thread-safe sends
(the coordinator's heartbeat thread and scheduling loop share a channel)
and blocking receives.  A closed or reset peer surfaces as
:class:`ConnectionClosed` from ``recv`` and ``send`` alike — callers
treat both as "the other end is gone", never as a protocol error.

Fault injection: ``send`` applies the fault it is handed and decides
none itself.  A fault is a :meth:`repro.chaos.ChaosPlan.faults` dict of
``transport.*`` sites: ``transport.delay`` stalls before the frame,
``transport.corrupt`` flips one body byte *after* the CRC is computed
(so the receiver's verification catches it), ``transport.truncate``
ships half the frame and severs the connection.  The coordinator's plan
draws these for job frames and, as the job's directive, for the agent's
outcome frame; control traffic is never handed one.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
import zlib
from typing import Optional, Tuple

#: Upper bound on one frame's payload.  Result payloads for large obs
#: sweeps run to a few MB; 256 MB is far above any legitimate message
#: and keeps a corrupt or hostile length prefix from allocating wildly.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Frame header (since v3): body length + CRC32 of the body.
_HEADER = struct.Struct(">II")


class TransportError(RuntimeError):
    """Malformed framing (oversized, undecodable or corrupt frame)."""


class ChecksumError(TransportError):
    """The frame body does not match its CRC32 (corruption in flight)."""


class ConnectionClosed(ConnectionError):
    """The peer hung up (EOF mid-frame or a reset socket)."""


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly *n* bytes or raise :class:`ConnectionClosed`."""
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            raise ConnectionClosed(f"peer reset: {exc}") from exc
        if not chunk:
            raise ConnectionClosed("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class FrameChannel:
    """One connected socket speaking length-prefixed JSON frames."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        # Receives are single-reader by design (one reader thread per
        # channel); the lock still guards against accidental sharing.
        self._recv_lock = threading.Lock()
        self._closed = False
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # non-TCP sockets (socketpair in tests) lack the option

    # -- plumbing -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def fileno(self) -> int:
        return self._sock.fileno()

    # -- frames ---------------------------------------------------------

    def send(self, message: dict, fault: Optional[dict] = None) -> None:
        """Ship one message, damaged as *fault* says (see module doc).

        Raises :class:`ConnectionClosed` if the peer is gone.
        """
        encoded = json.dumps(message, sort_keys=True).encode("utf-8")
        if len(encoded) > MAX_FRAME_BYTES:
            raise TransportError(
                f"outgoing frame of {len(encoded)} bytes exceeds cap"
            )
        crc = zlib.crc32(encoded) & 0xFFFFFFFF
        sever = False
        if fault:
            if fault.get("transport.delay"):
                time.sleep(fault["transport.delay"])
            if fault.get("transport.corrupt"):
                # Flip one body byte *after* the CRC was computed: the
                # receiver's checksum verification must catch it.
                corrupted = bytearray(encoded)
                corrupted[crc % len(corrupted)] ^= 0x01
                encoded = bytes(corrupted)
            elif fault.get("transport.truncate"):
                encoded = encoded[: max(1, len(encoded) // 2)]
                sever = True  # the peer sees EOF mid-frame
        frame = _HEADER.pack(
            len(encoded) if not sever else len(encoded) * 2, crc
        ) + encoded
        with self._send_lock:
            if self._closed:
                raise ConnectionClosed("channel is closed")
            try:
                self._sock.sendall(frame)
            except (ConnectionResetError, BrokenPipeError, OSError) as exc:
                raise ConnectionClosed(f"peer reset: {exc}") from exc
        if sever:
            self.close()

    def recv(self, timeout: Optional[float] = None) -> dict:
        """Block for the next message (``timeout`` seconds, else forever).

        Raises :class:`socket.timeout` on timeout and
        :class:`ConnectionClosed` on EOF/reset.
        """
        with self._recv_lock:
            self._sock.settimeout(timeout)
            try:
                header = _recv_exact(self._sock, _HEADER.size)
                length, crc = _HEADER.unpack(header)
                if length > MAX_FRAME_BYTES:
                    raise TransportError(
                        f"incoming frame of {length} bytes exceeds cap"
                    )
                body = _recv_exact(self._sock, length)
            finally:
                try:
                    self._sock.settimeout(None)
                except OSError:
                    pass
        actual = zlib.crc32(body) & 0xFFFFFFFF
        if actual != crc:
            raise ChecksumError(
                f"frame checksum mismatch (expected {crc:#010x}, got "
                f"{actual:#010x}): corruption in flight"
            )
        try:
            message = json.loads(body.decode("utf-8"))
        except ValueError as exc:
            raise TransportError(f"undecodable frame: {exc}") from exc
        if not isinstance(message, dict):
            raise TransportError(
                f"frame must decode to an object, got {type(message).__name__}"
            )
        return message

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def drop_fd(self) -> None:
        """Close only this process's descriptor, without shutdown.

        Forked children inherit the parent's connected socket; a plain
        ``close()`` here would ``shutdown()`` the *shared* connection and
        kill the parent's session.  Dropping just the duplicate FD keeps
        the parent's channel intact while ensuring the peer sees EOF the
        moment the last holder dies — a SIGKILLed agent whose workers
        still held the socket would otherwise look alive forever.
        """
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass


def connect(host: str, port: int, timeout: float = 10.0) -> FrameChannel:
    """Dial an agent and return the connected channel."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    return FrameChannel(sock)


def listen(host: str, port: int) -> Tuple[socket.socket, Tuple[str, int]]:
    """Bind a listening socket; returns ``(socket, (host, port))``.

    Port 0 asks the OS for a free port — the resolved address is what an
    auto-launched agent announces on stdout.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(8)  # an agent serves one coordinator at a time
    bound = sock.getsockname()[:2]
    return sock, (bound[0], int(bound[1]))


__all__ = [
    "MAX_FRAME_BYTES",
    "ChecksumError",
    "ConnectionClosed",
    "FrameChannel",
    "TransportError",
    "connect",
    "listen",
]
