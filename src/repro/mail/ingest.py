"""Real-world RFC-822 ingestion: ``.eml`` files -> :class:`EmailMessage`.

The corpus generator fabricates messages; this module maps *real*
reported samples (e.g. the ``phishing_pot`` collection of user-reported
phishing, one RFC-822 file per message) onto the same
:class:`~repro.mail.message.EmailMessage` model, so the runner can
analyze real-world corpora with the exact pipeline used for the
calibrated study.

Mapping notes:

- ``Date:`` becomes :attr:`EmailMessage.delivered_at` in hours relative
  to a study epoch (default: 2024-01-01 UTC, the start of the paper's
  measurement window).  Messages without a parseable date land at 0.0.
- Base64 content-transfer-encoded text parts stay base64-encoded in the
  part model — that encoding *is* one of the Section III-A message
  evasions, and the parser's decode step must see it.
- Binary attachments (images, PDFs, archives) are wrapped as
  :class:`~repro.mail.attachments.FileBlob` with their genuine leading
  bytes, so magic-number sniffing works; their payloads stay raw bytes
  (real PNG/PDF internals are outside the simulated formats, and the
  parser skips payloads it cannot model).
- ``message/rfc822`` attachments recurse into nested EmailMessages.
"""

from __future__ import annotations

import email
import email.policy
import email.utils
import pathlib
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone

from repro._memo import LRU
from repro.mail.attachments import FileBlob
from repro.mail.message import ContentType, EmailMessage, MessagePart

#: Start of the paper's measurement window (hours are counted from here).
DEFAULT_EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)


class IngestError(ValueError):
    """One input that cannot be mapped onto the message model.

    Raised per *file*, never per directory: corpus ingestion treats an
    undecodable sample as that sample's problem (it lands in the ingest
    report's quarantine list) and keeps going — one hostile or truncated
    ``.eml`` must not abort a 10k-message corpus."""


#: Distinct ``(name, value)`` header pairs kept parsed.  One ingest
#: fetches about 38 parsed headers (``get_content_type``, ``get_param``
#: and friends re-read ``Content-Type`` per call); 256 entries keep the
#: repeats within a message and the headers shared across reports.
HEADER_MEMO_SIZE = 256
#: RFC 5322's line-length cap.  A longer value is parsed as before but
#: never kept, so a hostile multi-megabyte header cannot pin memory.
HEADER_MEMO_MAX_VALUE = 998

_HEADER_MEMO: LRU = LRU(HEADER_MEMO_SIZE)


def header_memo_info() -> dict:
    """Hit/miss/size counters of the parsed-header memo."""
    return _HEADER_MEMO.info()


def clear_header_memo() -> None:
    """Drop all memoised headers and reset the counters."""
    _HEADER_MEMO.clear()


class _MemoPolicy(email.policy.EmailPolicy):
    """``email.policy.default`` with the header parse memoised.

    The stdlib result depends only on ``(name, value)``, and the header
    objects it returns are ``str`` subclasses no caller writes to, so a
    shared one is indistinguishable from a fresh parse.
    """

    def header_fetch_parse(self, name, value):
        if hasattr(value, "name") or len(value) > HEADER_MEMO_MAX_VALUE:
            return super().header_fetch_parse(name, value)
        key = (name, value)
        header = _HEADER_MEMO.get(key)
        if header is None:
            header = super().header_fetch_parse(name, value)
            _HEADER_MEMO.put(key, header)
        return header


_POLICY = _MemoPolicy()

_RECEIVED_IP_RE = re.compile(r"\[(\d{1,3}(?:\.\d{1,3}){3})\]")


def _address(value: str | None, fallback: str) -> str:
    if not value:
        return fallback
    _, address = email.utils.parseaddr(str(value))
    return address or fallback


def _delivered_hours(message, epoch: datetime) -> float:
    raw = message.get("Date")
    if not raw:
        return 0.0
    try:
        moment = email.utils.parsedate_to_datetime(str(raw))
    except (TypeError, ValueError):
        return 0.0
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return (moment - epoch).total_seconds() / 3600.0


def _sending_ip(message) -> str:
    """The first relay IP in the Received chain, when present."""
    for received in message.get_all("Received", []):
        match = _RECEIVED_IP_RE.search(str(received))
        if match:
            return match.group(1)
    return "198.51.100.10"


def _text_part(part, content_type_label: str) -> MessagePart:
    body = part.get_content()
    base64_encoded = (part.get("Content-Transfer-Encoding") or "").strip().lower() == "base64"
    filename = part.get_filename() or ""
    inline = part.get_content_disposition() != "attachment"
    if content_type_label == ContentType.HTML:
        return MessagePart.html(body, base64_encode=base64_encoded, filename=filename, inline=inline)
    return MessagePart.text(body, base64_encode=base64_encoded, filename=filename, inline=inline)


def _binary_part(part) -> MessagePart:
    payload = part.get_payload(decode=True) or b""
    filename = part.get_filename() or "attachment.bin"
    blob = FileBlob(name=filename, leading_bytes=payload[:16], payload=payload)
    return MessagePart(
        ContentType.OCTET_STREAM,
        blob,
        filename=filename,
        inline=part.get_content_disposition() != "attachment",
    )


def _convert_leaf(part) -> MessagePart | None:
    content_type = part.get_content_type()
    if content_type == "text/plain":
        return _text_part(part, ContentType.TEXT)
    if content_type == "text/html":
        return _text_part(part, ContentType.HTML)
    if content_type == "message/rfc822":
        payload = part.get_payload()
        inner = payload[0] if isinstance(payload, list) else payload
        nested = _convert_message(inner, DEFAULT_EPOCH)
        return MessagePart(
            ContentType.EML, nested, filename=part.get_filename() or "", inline=False
        )
    if content_type.startswith("multipart/"):
        return None  # containers are walked, never emitted
    return _binary_part(part)


def _convert_message(parsed, epoch: datetime) -> EmailMessage:
    sender = _address(parsed.get("From"), "unknown@example.com")
    recipient = _address(
        parsed.get("To") or parsed.get("Delivered-To"), "employee@corp.example"
    )
    headers: dict[str, str] = {}
    for name, value in parsed.items():
        headers.setdefault(name, str(value))

    message = EmailMessage(
        sender=sender,
        recipient=recipient,
        subject=str(parsed.get("Subject") or ""),
        delivered_at=_delivered_hours(parsed, epoch),
        headers=headers,
        sending_domain=_address(parsed.get("Return-Path"), sender).rsplit("@", 1)[-1].lower(),
        sending_ip=_sending_ip(parsed),
        dkim_signed="DKIM-Signature" in parsed,
        ground_truth={"source": "eml"},
    )

    for leaf in _iter_leaves(parsed):
        converted = _convert_leaf(leaf)
        if converted is not None:
            message.add_part(converted)
    return message


def _iter_leaves(parsed):
    """Direct leaves only: unlike ``Message.walk`` this does NOT descend
    into ``message/rfc822`` attachments — those convert recursively into
    nested EmailMessages, and descending here would duplicate their
    parts at the top level."""
    if parsed.get_content_maintype() == "multipart":
        for sub in parsed.get_payload():
            yield from _iter_leaves(sub)
    else:
        yield parsed


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def ingest_eml_bytes(data: bytes, epoch: datetime = DEFAULT_EPOCH) -> EmailMessage:
    """Parse one RFC-822 message from raw bytes.

    Raises :class:`IngestError` when the bytes are not a message at all
    (no header could be parsed — e.g. a binary blob or an empty file)
    or when conversion onto the message model fails (undeclared
    charsets, hopelessly malformed MIME structure).
    """
    try:
        parsed = email.message_from_bytes(data, policy=_POLICY)
    except Exception as error:  # the compat parser can still choke on NULs etc.
        raise IngestError(f"unparseable RFC-822 input: {error!r}") from error
    if not parsed.keys():
        raise IngestError("not an RFC-822 message: no headers parsed")
    try:
        return _convert_message(parsed, epoch)
    except IngestError:
        raise
    except Exception as error:  # noqa: BLE001 - any conversion crash is this file's defect
        raise IngestError(f"message conversion failed: {error!r}") from error


def ingest_eml_text(text: str, epoch: datetime = DEFAULT_EPOCH) -> EmailMessage:
    """Parse one RFC-822 message from text (useful in tests)."""
    return ingest_eml_bytes(text.encode("utf-8", errors="replace"), epoch=epoch)


def ingest_eml_file(path: str | pathlib.Path, epoch: datetime = DEFAULT_EPOCH) -> EmailMessage:
    """Parse one ``.eml`` file."""
    message = ingest_eml_bytes(pathlib.Path(path).read_bytes(), epoch=epoch)
    message.ground_truth["source"] = str(path)
    return message


@dataclass
class IngestReport:
    """What a directory ingestion produced: messages plus the files it
    had to skip, each with a machine-readable reason."""

    messages: list[EmailMessage] = field(default_factory=list)
    #: One ``{"path": ..., "reason": ...}`` entry per skipped file — the
    #: ingest-side analogue of a pipeline quarantine record.
    skipped: list[dict] = field(default_factory=list)


def ingest_directory_report(
    directory: str | pathlib.Path,
    pattern: str = "*.eml",
    epoch: datetime = DEFAULT_EPOCH,
) -> IngestReport:
    """Ingest every matching file under ``directory`` (sorted by name),
    skipping — not aborting on — files that cannot be read or parsed.

    The message list feeds straight into
    :meth:`repro.runner.runner.CorpusRunner.run` — message index is
    position among the *successfully ingested* files in the sorted
    listing, so resume semantics hold as long as the directory contents
    do not change between runs.
    """
    report = IngestReport()
    for path in sorted(pathlib.Path(directory).glob(pattern)):
        try:
            report.messages.append(ingest_eml_file(path, epoch=epoch))
        except (OSError, IngestError) as error:
            reason = (
                str(error) if isinstance(error, IngestError) else f"unreadable: {error!r}"
            )
            report.skipped.append({"path": str(path), "reason": reason})
    return report


def ingest_directory(
    directory: str | pathlib.Path,
    pattern: str = "*.eml",
    epoch: datetime = DEFAULT_EPOCH,
) -> list[EmailMessage]:
    """:func:`ingest_directory_report` without the skip list (legacy
    shape); defective files are skipped silently here."""
    return ingest_directory_report(directory, pattern=pattern, epoch=epoch).messages
