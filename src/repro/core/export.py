"""Artifact persistence: analysis records to/from JSON.

CrawlerBox's third phase "logs the results"; this module makes a study
run durable.  Exported records keep everything the analysis layer
consumes (categories, crawls with signals and network activity,
screenshot hashes, extraction provenance, enrichment summaries), so a
saved run can be reloaded later and every Section V statistic
recomputed without re-crawling.
"""

from __future__ import annotations

import json
import pathlib
import zlib

from repro.browser.session import SessionSignals
from repro.core.artifacts import MessageRecord, UrlCrawl
from repro.mail.auth import AuthResults
from repro.mail.guard import QuarantineReport
from repro.mail.parser import ExtractedUrl, ExtractionReport
from repro.web.resilient import FaultTelemetry

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def signals_to_dict(signals: SessionSignals | None) -> dict | None:
    if signals is None:
        return None
    return {
        "console_hijacked": signals.console_hijacked,
        "debugger_hits": signals.debugger_hits,
        "uses_debugger_timer": signals.uses_debugger_timer,
        "context_menu_blocked": signals.context_menu_blocked,
        "devtools_keys_blocked": signals.devtools_keys_blocked,
        "hue_rotation_deg": signals.hue_rotation_deg,
        "navigator_reads": list(signals.navigator_reads),
        "intl_timezone_read": signals.intl_timezone_read,
        "screen_reads": list(signals.screen_reads),
        "script_errors": list(signals.script_errors),
        "popups": list(signals.popups),
    }


def crawl_to_dict(crawl: UrlCrawl) -> dict:
    return {
        "url": crawl.url,
        "outcome": crawl.outcome,
        "page_class": crawl.page_class,
        "final_url": crawl.final_url,
        "url_chain": list(crawl.url_chain),
        "landing_domain": crawl.landing_domain,
        "server_ip": crawl.server_ip,
        "certificate_fingerprint": crawl.certificate_fingerprint,
        "certificate_not_before": crawl.certificate_not_before,
        "signals": signals_to_dict(crawl.signals),
        "resource_requests": [list(item) for item in crawl.resource_requests],
        "ajax_urls": list(crawl.ajax_urls),
        "screenshot_phash": crawl.screenshot_phash,
        "screenshot_dhash": crawl.screenshot_dhash,
        "executed_scripts": list(crawl.executed_scripts),
        "http_statuses": list(crawl.http_statuses),
        "discovered_dynamically": crawl.discovered_dynamically,
        "extraction_method": crawl.extraction_method,
        "final_title": crawl.final_title,
        "final_text_snippet": crawl.final_text_snippet,
    }


def record_to_dict(record: MessageRecord) -> dict:
    extraction = record.extraction
    data = {
        "message_index": record.message_index,
        "delivered_at": record.delivered_at,
        "recipient": record.recipient,
        "sender_domain": record.sender_domain,
        "auth": None
        if record.auth is None
        else {"spf": record.auth.spf, "dkim": record.auth.dkim, "dmarc": record.auth.dmarc},
        "category": record.category,
        "spear_brand": record.spear_brand,
        "spear_distances": list(record.spear_distances) if record.spear_distances else None,
        "local_login_form": record.local_login_form,
        "noise_padded": record.noise_padded,
        "qr_payloads": [list(item) for item in record.qr_payloads],
        "crawls": [crawl_to_dict(crawl) for crawl in record.crawls],
        "local_session_signals": [signals_to_dict(s) for s in record.local_session_signals],
        "extraction": None
        if extraction is None
        else {
            "urls": [
                {"url": item.url, "method": item.method, "part_path": item.part_path}
                for item in extraction.urls
            ],
            "qr_payloads": [list(item) for item in extraction.qr_payloads],
            "html_attachment_paths": sorted(extraction.html_attachment_paths),
            "content_types": list(extraction.content_types),
        },
    }
    # Degradation fields are emitted only when they carry information:
    # a healthy full-plan record (every stage ``ok``, nothing skipped)
    # serializes byte-identically to the pre-stage-graph format.
    if record.stage_status and any(
        status != "ok" for status in record.stage_status.values()
    ):
        data["stage_status"] = dict(record.stage_status)
    if record.stage_errors:
        data["stage_errors"] = dict(record.stage_errors)
    if record.quarantine is not None:
        data["quarantine"] = record.quarantine.as_dict()
    if record.benign_url_skips:
        data["benign_url_skips"] = list(record.benign_url_skips)
    if record.fault_telemetry is not None:
        data["fault_telemetry"] = record.fault_telemetry.as_dict()
    return data


def export_records(records: list[MessageRecord]) -> dict:
    """The full study run as one JSON-serializable document."""
    return {
        "format_version": FORMAT_VERSION,
        "n_records": len(records),
        "records": [record_to_dict(record) for record in records],
    }


def save_records(records: list[MessageRecord], path: str | pathlib.Path) -> None:
    # Exports go through the durable layer like every other persistent
    # artifact: temp write + fsync + atomic rename, never a half-written
    # export (and the storage fault engine exercises this path too).
    from repro.storage.durable import durable_write_text, retrying

    document = export_records(records)
    payload = json.dumps(document, separators=(",", ":"))
    retrying(lambda: durable_write_text(pathlib.Path(path), payload))


def record_to_line(record: MessageRecord) -> str:
    """One record as a single compact JSON line (the JSONL checkpoint
    format of :mod:`repro.runner.checkpoint`); same field layout as the
    monolithic document, so the two formats stay byte-compatible."""
    return json.dumps(record_to_dict(record), separators=(",", ":"))


def record_from_line(line: str) -> MessageRecord:
    """Inverse of :func:`record_to_line`."""
    return record_from_dict(json.loads(line))


# ----------------------------------------------------------------------
# Checkpoint wire format (v2)
# ----------------------------------------------------------------------
# The JSONL checkpoint's framed line format lives here, next to the
# serialization it frames, so *workers* can render a record all the way
# to its final on-disk bytes: compact JSON + a literal TAB + a CRC32
# suffix.  The TAB is impossible inside the payload (``json.dumps``
# escapes control characters), so the suffix is unambiguous.
# :mod:`repro.runner.checkpoint` builds its scan/compact machinery on
# these primitives.

CRC_SEPARATOR = "\t#crc32="
CRC_SEPARATOR_BYTES = CRC_SEPARATOR.encode("utf-8")


def crc_suffix(payload: str) -> str:
    return format(zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF, "08x")


def encode_record_line(payload: str) -> str:
    """``payload`` (one compact JSON document) with its CRC32 suffix."""
    return payload + CRC_SEPARATOR + crc_suffix(payload)


def record_to_wire(record: MessageRecord) -> bytes:
    """One record as its final checkpoint wire form (no newline).

    This is *the* record→bytes function of the data plane: process
    workers render results with it so the parent's hot loop is
    append-bytes-and-ack, and inline runs render with the same
    function, which is what keeps every transport's checkpoint
    byte-identical.
    """
    return encode_record_line(record_to_line(record)).encode("utf-8")


def wire_payload(wire: bytes) -> str:
    """The compact JSON document inside one wire line (suffix stripped)."""
    text = wire.decode("utf-8")
    payload, separator, _ = text.rpartition(CRC_SEPARATOR)
    return payload if separator else text


def record_from_wire(wire: bytes) -> MessageRecord:
    """Inverse of :func:`record_to_wire` (the CRC is not re-verified —
    use :func:`repro.runner.checkpoint.parse_record_line` to validate)."""
    return record_from_dict(json.loads(wire_payload(wire)))


class WireRecord:
    """A worker-serialized record: wire bytes first, object on demand.

    The serve data plane hands these to the daemon so its hot path —
    checkpoint append plus verdict splice — reuses the bytes the worker
    already rendered instead of re-parsing and re-serializing JSON.
    """

    __slots__ = ("wire", "_record")

    def __init__(self, wire: bytes, record: MessageRecord | None = None):
        self.wire = wire
        self._record = record

    @property
    def payload(self) -> str:
        """The compact JSON document (CRC suffix stripped)."""
        return wire_payload(self.wire)

    @property
    def record(self) -> MessageRecord:
        if self._record is None:
            self._record = record_from_dict(json.loads(self.payload))
        return self._record


# ----------------------------------------------------------------------
# Deserialization
# ----------------------------------------------------------------------
def _signals_from_dict(data: dict | None) -> SessionSignals | None:
    if data is None:
        return None
    return SessionSignals(
        console_hijacked=data["console_hijacked"],
        debugger_hits=data["debugger_hits"],
        uses_debugger_timer=data["uses_debugger_timer"],
        context_menu_blocked=data["context_menu_blocked"],
        devtools_keys_blocked=data["devtools_keys_blocked"],
        hue_rotation_deg=data["hue_rotation_deg"],
        navigator_reads=tuple(data["navigator_reads"]),
        intl_timezone_read=data["intl_timezone_read"],
        screen_reads=tuple(data["screen_reads"]),
        script_errors=tuple(data["script_errors"]),
        popups=tuple(data["popups"]),
    )


def _crawl_from_dict(data: dict) -> UrlCrawl:
    return UrlCrawl(
        url=data["url"],
        outcome=data["outcome"],
        page_class=data["page_class"],
        final_url=data["final_url"],
        url_chain=tuple(data["url_chain"]),
        landing_domain=data["landing_domain"],
        server_ip=data["server_ip"],
        certificate_fingerprint=data["certificate_fingerprint"],
        certificate_not_before=data["certificate_not_before"],
        signals=_signals_from_dict(data["signals"]),
        resource_requests=tuple(tuple(item) for item in data["resource_requests"]),
        ajax_urls=tuple(data["ajax_urls"]),
        screenshot_phash=data["screenshot_phash"],
        screenshot_dhash=data["screenshot_dhash"],
        executed_scripts=tuple(data["executed_scripts"]),
        http_statuses=tuple(data["http_statuses"]),
        discovered_dynamically=data["discovered_dynamically"],
        extraction_method=data["extraction_method"],
        final_title=data["final_title"],
        final_text_snippet=data["final_text_snippet"],
    )


def record_from_dict(data: dict) -> MessageRecord:
    record = MessageRecord(
        message_index=data["message_index"],
        delivered_at=data["delivered_at"],
        recipient=data["recipient"],
        sender_domain=data["sender_domain"],
    )
    if data["auth"] is not None:
        record.auth = AuthResults(**data["auth"])
    record.category = data["category"]
    record.spear_brand = data["spear_brand"]
    if data["spear_distances"] is not None:
        record.spear_distances = tuple(data["spear_distances"])
    record.local_login_form = data["local_login_form"]
    record.noise_padded = data["noise_padded"]
    record.stage_status = dict(data.get("stage_status") or {})
    record.stage_errors = dict(data.get("stage_errors") or {})
    if data.get("quarantine") is not None:
        record.quarantine = QuarantineReport.from_dict(data["quarantine"])
    record.benign_url_skips = tuple(data.get("benign_url_skips") or ())
    if data.get("fault_telemetry") is not None:
        record.fault_telemetry = FaultTelemetry.from_dict(data["fault_telemetry"])
    record.qr_payloads = tuple(tuple(item) for item in data["qr_payloads"])
    record.crawls = [_crawl_from_dict(item) for item in data["crawls"]]
    record.local_session_signals = [
        s for s in (_signals_from_dict(item) for item in data["local_session_signals"]) if s
    ]
    if data["extraction"] is not None:
        report = ExtractionReport()
        report.urls = [
            ExtractedUrl(url=item["url"], method=item["method"], part_path=item["part_path"])
            for item in data["extraction"]["urls"]
        ]
        report.qr_payloads = [tuple(item) for item in data["extraction"]["qr_payloads"]]
        report.html_attachment_paths = set(data["extraction"]["html_attachment_paths"])
        report.content_types = list(data["extraction"]["content_types"])
        record.extraction = report
    return record


def load_records(path: str | pathlib.Path) -> list[MessageRecord]:
    """Reload a saved study run for offline re-analysis."""
    document = json.loads(pathlib.Path(path).read_text())
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported artifact format version {version!r}")
    return [record_from_dict(item) for item in document["records"]]
