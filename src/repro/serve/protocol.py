"""The ingestion session protocol: line-delimited JSON over a socket.

One connection carries one *session*.  The client writes one compact
JSON object per line; the daemon answers on the same connection — an
immediate admission response per submission, then an asynchronous
verdict line once the analysis completes.  Framing is a plain ``\\n``:
``json.dumps`` escapes control characters, so a newline can never occur
inside a payload.

Client -> server ops::

    {"op": "submit", "reporter": "acme", "id": "c-17", "eml": "<base64>"}
    {"op": "stats"}                  # same payload as GET /stats
    {"op": "ping"}                   # liveness probe -> pong
    {"op": "bye"}                    # flush my pending verdicts, close

Server -> client ops::

    {"op": "accepted",   "id": "c-17", "message_index": 412}
    {"op": "verdict",    "id": "c-17", "message_index": 412, "record": {...}}
    {"op": "overloaded", "id": "c-17", "reason": "...", "retry_after_submissions": 3}
    {"op": "rejected",   "id": "c-17", "reason": "..."}
    {"op": "failed",     "id": "c-17", "message_index": 412, "error": "..."}
    {"op": "busy",       "reason": "session-limit", ...}   # connection refused
    {"op": "pong" | "stats" | "goodbye" | "error", ...}

Every refusal is explicit and machine-readable: a submission is either
``accepted`` (a verdict **will** follow — it is durable before the
daemon exits), ``overloaded`` (admission shed; the client owns the
retry), or ``rejected`` (the bytes can never be analyzed — malformed
RFC-822, oversized line, draining daemon).  A connection over the
daemon's session cap is answered with a ``busy`` line and closed before
a session ever starts.  There are no silent drops and no dead letters.

The same listening port also answers plain HTTP ``GET /stats`` and
``GET /healthz`` (the first bytes of a session disambiguate), so stock
monitoring can scrape the daemon without speaking the session protocol.
Any other HTTP method gets a proper ``405 Method Not Allowed`` instead
of falling through into the session parser.

The server side never trusts a client to finish what it started:
:class:`LineChannel` reads lines off a non-blocking socket under two
deadlines — a *line deadline* (wall clock to complete one line once its
first byte arrived, which defeats slowloris byte-trickling) and an
*idle timeout* (quiet seconds between lines, which defeats connection
camping; deferrable while verdicts are still owed to the peer) — and
:func:`send_bounded` writes responses under a send deadline so a peer
that stops reading cannot pin a daemon thread.
"""

from __future__ import annotations

import json
import select
import socket
import time

#: Hard cap on one protocol line (a submission carries a whole base64
#: message, so this bounds daemon memory per connection the same way
#: GuardLimits bounds decoded structure).  32 MiB comfortably fits the
#: guard's default 16 MiB total-decoded cap after base64 expansion.
MAX_LINE_BYTES = 32 << 20

#: HTTP methods whose first socket bytes flag an HTTP request, not a
#: session.  Only GET and HEAD are *served*; the rest are answered with
#: 405 rather than confusing JSON protocol errors.
_HTTP_METHODS = (
    "GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "PATCH", "TRACE", "CONNECT",
)
_HTTP_PREFIXES = tuple(f"{method} ".encode("ascii") for method in _HTTP_METHODS)

#: The methods the monitoring endpoints actually answer.
HTTP_ALLOWED_METHODS = ("GET", "HEAD")

#: recv/select slice while waiting on a socket (seconds).  Small enough
#: that a drain or a deadline is noticed promptly, large enough that an
#: idle session costs ~4 wakeups a second.
_POLL_SLICE = 0.25


class ProtocolError(ValueError):
    """One malformed protocol line (bad JSON, missing op, oversized)."""


class LineTooLong(ProtocolError):
    """A line exceeded the per-line byte limit."""


class ReadDeadlineExceeded(ProtocolError):
    """A started line was not completed within the line deadline
    (the slowloris shape: bytes trickling in forever)."""


class IdleTimeout(ProtocolError):
    """No bytes at all arrived within the idle window between lines
    (the camping shape: a connection held open doing nothing)."""


def encode_line(payload: dict) -> bytes:
    """One protocol message -> its compact single-line wire form."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8") + b"\n"


def encode_verdict_line(client_id: str, message_index: int, record_payload: str) -> bytes:
    """A verdict response spliced around an already-serialized record.

    ``record_payload`` is the compact JSON document the worker rendered
    for the checkpoint (:func:`repro.core.export.record_to_line` form,
    CRC suffix stripped).  The daemon's hot path splices those bytes
    into the response instead of parsing and re-serializing the record;
    the envelope keys are emitted pre-sorted so the result matches what
    :func:`encode_line` would produce around the same document.
    """
    head = json.dumps(
        {"id": client_id, "message_index": message_index, "op": "verdict"},
        separators=(",", ":"),
        sort_keys=True,
    )
    return head[:-1].encode("utf-8") + b',"record":' + record_payload.encode("utf-8") + b"}\n"


def decode_line(line: bytes) -> dict:
    """One wire line -> the message dict (:class:`ProtocolError` on junk).

    ``RecursionError`` is caught alongside decode errors: a deeply
    nested JSON bomb must yield a machine-readable protocol error, not
    an unwinding daemon thread.  ``ValueError`` covers the UTF-8 and
    JSON decode errors and an integer past ``int()``'s digit limit.
    """
    try:
        payload = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        raise ProtocolError(f"undecodable protocol line: {error!r:.120}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("op"), str):
        raise ProtocolError("protocol message must be a JSON object with a string 'op'")
    return payload


def read_line(stream, limit: int = MAX_LINE_BYTES) -> bytes | None:
    """Read one bounded line from a socket file object (client side).

    Returns the line without its newline, ``None`` at EOF, and raises
    :class:`ProtocolError` when the line exceeds ``limit`` — the caller
    answers with a machine-readable rejection and closes, rather than
    buffering an attacker-sized line.
    """
    line = stream.readline(limit + 1)
    if not line:
        return None
    if len(line) > limit:
        raise LineTooLong(f"line exceeds {limit} bytes")
    return line.rstrip(b"\n")


class LineChannel:
    """Deadline-aware bounded line reader over a non-blocking socket.

    The server-side replacement for ``makefile("rb").readline()``, which
    trusts the peer completely: a blocking readline has no deadline, so
    one slowloris client trickling a byte a minute — or one camper
    sending nothing at all — pins a daemon thread forever.  The channel
    owns its buffer, polls the socket in short slices, and enforces:

    - ``limit`` — the existing per-line byte cap (:class:`LineTooLong`);
    - ``line_deadline`` — wall-clock budget to *finish* a line once its
      first byte arrived (:class:`ReadDeadlineExceeded`);
    - ``idle_timeout`` — quiet seconds allowed between lines
      (:class:`IdleTimeout`); the ``defer_idle`` callback lets the
      caller park the clock while it still owes the peer verdicts, so a
      well-behaved reporter silently awaiting results is never reaped —
      that is what makes the reaper *progress-based*.

    EOF with an unterminated line in the buffer (a mid-line disconnect)
    returns ``None`` like a clean EOF; :attr:`pending` tells the caller
    how many orphaned bytes the peer abandoned.
    """

    def __init__(self, conn, limit: int = MAX_LINE_BYTES, poll_slice: float = _POLL_SLICE):
        conn.setblocking(False)
        self.conn = conn
        self.limit = limit
        self.poll_slice = poll_slice
        self._buffer = bytearray()
        self._eof = False

    @property
    def pending(self) -> int:
        """Unterminated bytes left in the buffer (mid-line disconnect)."""
        return len(self._buffer)

    def read_line(
        self,
        line_deadline: float | None = None,
        idle_timeout: float | None = None,
        defer_idle=None,
    ) -> bytes | None:
        started = time.monotonic() if self._buffer else None
        idle_since = time.monotonic()
        while True:
            newline = self._buffer.find(b"\n")
            if newline != -1:
                if newline > self.limit:
                    raise LineTooLong(f"line exceeds {self.limit} bytes")
                line = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                return line.rstrip(b"\r")
            if len(self._buffer) > self.limit:
                raise LineTooLong(f"line exceeds {self.limit} bytes")
            if self._eof:
                return None
            now = time.monotonic()
            if self._buffer:
                if line_deadline is not None and started is not None:
                    if now - started >= line_deadline:
                        raise ReadDeadlineExceeded(
                            f"line not completed within {line_deadline:g}s"
                        )
            elif idle_timeout is not None and now - idle_since >= idle_timeout:
                if defer_idle is not None and defer_idle():
                    idle_since = now  # verdicts still owed: not idle
                else:
                    raise IdleTimeout(f"no submission within {idle_timeout:g}s")
            try:
                readable, _, _ = select.select([self.conn], [], [], self.poll_slice)
            except (OSError, ValueError):
                return None  # socket closed under us (drain / dead peer)
            if not readable:
                continue
            try:
                chunk = self.conn.recv(65536)
            except (BlockingIOError, InterruptedError):
                continue
            except OSError:
                return None
            if not chunk:
                self._eof = True
                continue
            if not self._buffer:
                started = time.monotonic()
            self._buffer += chunk


def set_nodelay(conn) -> None:
    """Turn off Nagle's algorithm on ``conn`` (best-effort).

    Both peers write small lines back to back: the daemon answers a
    submit with ``accepted`` and then ``verdict``.  With Nagle on, the
    second write waits for the ACK of the first, and the peer's
    delayed ACK holds that back for 40 ms.  A socket that is not TCP
    (or is already closed) raises ``OSError``, which is ignored.
    """
    try:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass


def send_bounded(conn, data: bytes, timeout: float, poll_slice: float = _POLL_SLICE) -> bool:
    """Write ``data`` with a wall-clock deadline; True when fully sent.

    Switches the socket to non-blocking mode (daemon-side sockets
    already are, via :class:`LineChannel`): a blocking ``send()`` can
    ignore the deadline entirely — Linux queues a whole AF_UNIX stream
    send before returning, writability notwithstanding.  Returns False
    — never raises — when the peer is dead, the socket is closed, or
    the deadline expires with bytes still unsent: the caller treats all
    three as a dead peer and abandons only the socket write.
    """
    try:
        conn.setblocking(False)
    except OSError:
        return False
    deadline = time.monotonic() + max(0.0, timeout)
    view = memoryview(data)
    while view:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        try:
            _, writable, _ = select.select([], [conn], [], min(poll_slice, remaining))
        except (OSError, ValueError):
            return False
        if not writable:
            continue
        try:
            sent = conn.send(view)
        except (BlockingIOError, InterruptedError):
            continue
        except OSError:
            return False
        view = view[sent:]
    return True


def looks_like_http(first_line: bytes) -> bool:
    """True when a session's first line is an HTTP request line."""
    return first_line.startswith(_HTTP_PREFIXES)


def http_request_parts(request_line: bytes) -> tuple[str, str]:
    """``(method, path)`` of an HTTP request line (query string dropped)."""
    parts = request_line.split()
    method = parts[0].decode("ascii", "replace") if parts else "?"
    path = parts[1].decode("ascii", "replace") if len(parts) > 1 else "/"
    return method, path.split("?", 1)[0]


def http_response(status: int, payload: dict, headers: dict | None = None) -> bytes:
    """A minimal one-shot HTTP/1.0 JSON response (connection closes)."""
    reasons = {
        200: "OK",
        404: "Not Found",
        405: "Method Not Allowed",
        503: "Service Unavailable",
    }
    body = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8") + b"\n"
    extra = "".join(f"{name}: {value}\r\n" for name, value in (headers or {}).items())
    head = (
        f"HTTP/1.0 {status} {reasons.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        f"Connection: close\r\n\r\n"
    ).encode("ascii")
    return head + body
