"""Wire protocol for the ``repro.serve`` daemon.

Frames are length-prefixed: a 5-byte header -- ``!I`` payload length plus a
1-byte codec tag -- followed by a JSON payload.  The tag is always ``J``;
a frame carrying any other tag is a :class:`ProtocolError`.

Messages are flat dicts.  A request carries ``op`` plus op-specific fields
and an optional client-chosen ``id`` that the response echoes; a response
carries ``ok`` and either result fields or ``error``/``code``.  The one
load-bearing error code is ``RETRY_AFTER``: the daemon sheds load (token
bucket empty, or writer queue at its bound) by answering immediately with
``retry_after`` seconds instead of buffering without bound -- the client
backs off and retries (see :mod:`repro.serve.loadgen`).

Ops: ``update``, ``batch_update``, ``range``, ``knn``, ``stats``,
``checkpoint``, ``shutdown``.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``!I`` payload length + 1-byte codec tag.
_PREFIX = struct.Struct("!IB")
PREFIX_SIZE = _PREFIX.size

CODEC_JSON = ord("J")

#: Refuse frames past this size instead of trusting a 4-GiB length word
#: from a confused or hostile peer.
MAX_FRAME = 8 << 20

#: Error codes a response's ``code`` field may carry.
ERR_BAD_REQUEST = "BAD_REQUEST"
ERR_RETRY_AFTER = "RETRY_AFTER"
ERR_UNSUPPORTED = "UNSUPPORTED"
ERR_SHUTTING_DOWN = "SHUTTING_DOWN"
ERR_INTERNAL = "INTERNAL"

#: The request ops the daemon understands.
OPS = (
    "update",
    "batch_update",
    "range",
    "knn",
    "stats",
    "checkpoint",
    "shutdown",
)


class ProtocolError(ValueError):
    """A frame or message violated the wire contract."""


def encode_payload(message: Dict[str, Any]) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode("utf-8")


def decode_payload(payload: bytes, tag: int) -> Dict[str, Any]:
    if tag != CODEC_JSON:
        raise ProtocolError(f"unknown codec tag {tag!r}")
    try:
        message = json.loads(payload.decode("utf-8"))
    except Exception as exc:
        raise ProtocolError(f"undecodable payload: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("message must be a mapping")
    return message


def pack_frame(message: Dict[str, Any]) -> bytes:
    payload = encode_payload(message)
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds MAX_FRAME")
    return _PREFIX.pack(len(payload), CODEC_JSON) + payload


def unpack_prefix(prefix: bytes) -> Tuple[int, int]:
    """-> (payload length, codec tag); validates the length bound."""
    length, tag = _PREFIX.unpack(prefix)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds MAX_FRAME")
    return length, tag


# -- asyncio side (daemon) ----------------------------------------------------


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one frame -> its message; ``None`` on clean EOF.

    EOF *inside* a frame (a client that died mid-send) raises
    :class:`ProtocolError` so the handler can count it as a broken
    connection rather than a clean close.
    """
    try:
        prefix = await reader.readexactly(PREFIX_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise ProtocolError("connection closed mid-prefix") from None
    length, tag = unpack_prefix(prefix)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    return decode_payload(payload, tag)


async def write_message(
    writer: asyncio.StreamWriter, message: Dict[str, Any]
) -> None:
    payload = encode_payload(message)
    writer.write(_PREFIX.pack(len(payload), CODEC_JSON) + payload)
    await writer.drain()


def ok_response(rid: Optional[int], **fields: Any) -> Dict[str, Any]:
    response: Dict[str, Any] = {"ok": True, **fields}
    if rid is not None:
        response["id"] = rid
    return response


def error_response(
    rid: Optional[int], code: str, message: str, **fields: Any
) -> Dict[str, Any]:
    response: Dict[str, Any] = {
        "ok": False,
        "code": code,
        "error": message,
        **fields,
    }
    if rid is not None:
        response["id"] = rid
    return response


# -- blocking client (loadgen, CLI, tests) ------------------------------------


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("server closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class ServeError(RuntimeError):
    """A non-``ok`` response the client chose not to tolerate."""

    def __init__(self, response: Dict[str, Any]) -> None:
        super().__init__(
            f"{response.get('code', 'ERROR')}: {response.get('error', '?')}"
        )
        self.response = response
        self.code = response.get("code")


class ServeClient:
    """Blocking request/response client for one daemon connection."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._next_id = 0

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # Raw frame I/O: exposed so tests can send malformed/partial frames.

    def send_raw(self, data: bytes) -> None:
        self._sock.sendall(data)

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request and correlate its response by ``id``.

        Any failure that can leave the stream desynchronized -- a timeout
        or reset mid-frame (the next read would start inside a stale
        payload), or a response whose ``id`` is not the one just sent (a
        late reply to an earlier, abandoned request) -- closes the socket
        before raising: this connection must not be reused.
        """
        self._next_id += 1
        rid = self._next_id
        message = {"op": op, "id": rid, **fields}
        try:
            self._sock.sendall(pack_frame(message))
            prefix = _recv_exactly(self._sock, PREFIX_SIZE)
            length, tag = unpack_prefix(prefix)
            response = decode_payload(_recv_exactly(self._sock, length), tag)
        except (OSError, ProtocolError):
            # OSError covers ConnectionError and socket timeouts; either
            # way the frame boundary is lost.
            self.close()
            raise
        got = response.get("id")
        if got != rid:
            self.close()
            raise ProtocolError(
                f"response id {got!r} does not match request id {rid}; "
                "closing the desynced connection"
            )
        return response

    def _checked(self, response: Dict[str, Any]) -> Dict[str, Any]:
        if not response.get("ok"):
            raise ServeError(response)
        return response

    # Convenience wrappers -- one per protocol op.

    def update(self, oid: int, point: Sequence[float], t: float) -> Dict[str, Any]:
        return self.request("update", oid=oid, point=list(point), t=t)

    def batch_update(
        self, updates: Iterable[Sequence[float]]
    ) -> Dict[str, Any]:
        return self.request(
            "batch_update", updates=[list(u) for u in updates]
        )

    def range(
        self,
        lo: Sequence[float],
        hi: Sequence[float],
        *,
        fresh: bool = False,
    ) -> Dict[str, Any]:
        return self._checked(
            self.request("range", rect=[list(lo), list(hi)], fresh=fresh)
        )

    def knn(
        self, point: Sequence[float], k: int = 1, *, fresh: bool = False
    ) -> Dict[str, Any]:
        return self._checked(
            self.request("knn", point=list(point), k=k, fresh=fresh)
        )

    def stats(self) -> Dict[str, Any]:
        return self._checked(self.request("stats"))["stats"]

    def checkpoint(self) -> Dict[str, Any]:
        return self._checked(self.request("checkpoint"))

    def shutdown(self) -> Dict[str, Any]:
        return self._checked(self.request("shutdown"))
