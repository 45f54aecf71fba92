"""A small synchronous client for the ``repro serve`` session protocol.

Used by ``repro submit``, the serve tests, and the throughput benchmark.
One :class:`ServeClient` holds one connection/session.  Submissions are
pipeline-friendly: :meth:`submit_bytes` blocks only until the daemon's
*admission* response (``accepted`` / ``overloaded`` / ``rejected``),
buffering any asynchronous ``verdict`` lines that arrive interleaved;
:meth:`wait_verdicts` then drains until every accepted submission has
its verdict (or terminal failure).
"""

from __future__ import annotations

import base64
import socket
import time
from dataclasses import dataclass

from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    encode_line,
    read_line,
    set_nodelay,
)

#: Admission responses (one always arrives, synchronously, per submit).
_ACK_OPS = ("accepted", "overloaded", "rejected")


@dataclass
class SubmissionOutcome:
    """Everything the daemon said about one submission."""

    client_id: str
    reporter: str
    #: 'accepted' | 'overloaded' | 'rejected' (admission), upgraded to
    #: 'verdict' | 'failed' once the terminal response lands.
    status: str = "pending"
    message_index: int | None = None
    reason: str | None = None
    retry_after_submissions: int | None = None
    #: The serialized MessageRecord dict from the verdict line.
    record: dict | None = None
    error: str | None = None
    #: Automatic resubmissions :meth:`ServeClient.submit_with_retry`
    #: spent before this outcome (0 for plain :meth:`submit_bytes`).
    retries: int = 0

    @property
    def accepted(self) -> bool:
        return self.message_index is not None

    @property
    def done(self) -> bool:
        """No further responses will arrive for this submission."""
        return self.status in ("overloaded", "rejected", "verdict", "failed")


class ServeClient:
    """One synchronous session against a running daemon."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.timeout = timeout
        self._conn = socket.create_connection((host, port), timeout=timeout)
        set_nodelay(self._conn)
        self._stream = self._conn.makefile("rb")
        self._next_id = 0
        #: client_id -> outcome, in submission order (dicts preserve it).
        self.outcomes: dict[str, SubmissionOutcome] = {}

    # ------------------------------------------------------------------
    def submit_bytes(
        self, raw: bytes, reporter: str = "anonymous", client_id: str | None = None
    ) -> SubmissionOutcome:
        """Submit one RFC-822 message; block until the admission response."""
        if client_id is None:
            self._next_id += 1
            client_id = f"c-{self._next_id}"
        outcome = SubmissionOutcome(client_id=client_id, reporter=reporter)
        self.outcomes[client_id] = outcome
        self._send(
            {
                "op": "submit",
                "id": client_id,
                "reporter": reporter,
                "eml": base64.b64encode(raw).decode("ascii"),
            }
        )
        while not (outcome.done or outcome.status in _ACK_OPS):
            self._pump_one()
        return outcome

    def submit_with_retry(
        self,
        raw: bytes,
        reporter: str = "anonymous",
        client_id: str | None = None,
        max_retries: int = 4,
        backoff: float = 0.0,
    ) -> SubmissionOutcome:
        """Submit, honoring the daemon's ``retry_after_submissions`` hint.

        An ``overloaded`` response carries how many arrival ticks the
        admission bucket needs to refill one message's worth of budget;
        each resubmission is itself a tick, so a lone client converges
        by simply resubmitting up to ``max_retries`` times (``backoff``
        seconds apart, scaled by the hint).  A ``None`` hint means the
        budget can never refill (e.g. readonly storage) — returned
        immediately, the caller owns that retry.  The final outcome's
        ``retries`` records the attempts spent.
        """
        retries = 0
        while True:
            outcome = self.submit_bytes(raw, reporter=reporter, client_id=client_id)
            outcome.retries = retries
            hint = outcome.retry_after_submissions
            if outcome.status != "overloaded" or hint is None or retries >= max_retries:
                return outcome
            retries += 1
            if backoff > 0.0:
                time.sleep(backoff * max(1, hint))

    def wait_verdicts(self, timeout: float | None = None) -> list[SubmissionOutcome]:
        """Block until every accepted submission has a terminal response."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while any(o.accepted and not o.done for o in self.outcomes.values()):
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("verdicts still outstanding")
            self._pump_one()
        return list(self.outcomes.values())

    def stats(self) -> dict:
        """The daemon's live /stats payload, over the session protocol."""
        self._send({"op": "stats"})
        while True:
            payload = self._pump_one()
            if payload.get("op") == "stats":
                return payload["stats"]

    def ping(self) -> dict:
        self._send({"op": "ping"})
        while True:
            payload = self._pump_one()
            if payload.get("op") == "pong":
                return payload

    def close(self, bye: bool = True) -> None:
        """Flush pending verdicts through ``bye``/``goodbye``, then close."""
        try:
            if bye:
                self._send({"op": "bye"})
                while True:
                    payload = self._pump_one()
                    if payload.get("op") == "goodbye":
                        break
        except (OSError, ProtocolError, EOFError):
            pass
        finally:
            try:
                self._stream.close()
            except OSError:
                pass
            try:
                self._conn.close()
            except OSError:
                pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _send(self, payload: dict) -> None:
        self._conn.sendall(encode_line(payload))

    def _pump_one(self) -> dict:
        """Read one server line and fold it into the outcome table."""
        line = read_line(self._stream, MAX_LINE_BYTES)
        if line is None:
            raise EOFError("daemon closed the session")
        payload = {}
        try:
            import json

            payload = json.loads(line.decode("utf-8"))
        except Exception as error:
            raise ProtocolError(f"undecodable server line: {error}") from error
        op = payload.get("op")
        outcome = self.outcomes.get(str(payload.get("id") or ""))
        if outcome is not None:
            if op in _ACK_OPS:
                outcome.status = op
                outcome.message_index = payload.get("message_index")
                outcome.reason = payload.get("reason")
                outcome.retry_after_submissions = payload.get("retry_after_submissions")
            elif op == "verdict":
                outcome.status = "verdict"
                outcome.record = payload.get("record")
            elif op == "failed":
                outcome.status = "failed"
                outcome.error = payload.get("error")
        return payload
