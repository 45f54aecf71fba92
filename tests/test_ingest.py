"""Real-world .eml ingestion (the phishing_pot RFC-822 format)."""

from __future__ import annotations

import base64
import contextlib
import email
import email.policy
import textwrap
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.hostile import SHAPES, hostile_message
from repro.mail import ingest as ingest_module
from repro.mail.attachments import ZIP_MAGIC
from repro.mail.ingest import (
    _HEADER_MEMO,
    DEFAULT_EPOCH,
    HEADER_MEMO_MAX_VALUE,
    HEADER_MEMO_SIZE,
    IngestError,
    clear_header_memo,
    header_memo_info,
    ingest_directory,
    ingest_directory_report,
    ingest_eml_bytes,
    ingest_eml_file,
    ingest_eml_text,
)
from repro.mail.message import ContentType, EmailMessage
from repro.mail.parser import EmailParser


def _sample_eml(body_b64: str) -> str:
    return textwrap.dedent(f"""\
        Return-Path: <bounce@spammer.ru>
        Delivered-To: victim@corp.example
        Received: from relay.spammer.ru (relay.spammer.ru [203.0.113.9])
        \tby mx.corp.example with ESMTP id abc123
        DKIM-Signature: v=1; a=rsa-sha256; d=spammer.ru; s=sel;
        From: "IT Support" <support@spammer.ru>
        To: victim@corp.example
        Subject: Password expires today
        Date: Tue, 12 Mar 2024 10:30:00 +0000
        MIME-Version: 1.0
        Content-Type: multipart/mixed; boundary="BOUND"

        --BOUND
        Content-Type: text/plain; charset=utf-8
        Content-Transfer-Encoding: base64

        {body_b64}
        --BOUND
        Content-Type: text/html; charset=utf-8
        Content-Disposition: attachment; filename="invoice.html"

        <html><body><a href="https://phish.example/portal">Open invoice</a></body></html>
        --BOUND--
        """)


SAMPLE = _sample_eml(
    base64.b64encode(b"Click https://evil.example/login now").decode("ascii")
)


class TestHeaderMapping:
    def test_addresses_and_subject(self):
        message = ingest_eml_text(SAMPLE)
        assert message.sender == "support@spammer.ru"
        assert message.sender_domain == "spammer.ru"
        assert message.recipient == "victim@corp.example"
        assert message.subject == "Password expires today"

    def test_delivery_time_relative_to_epoch(self):
        message = ingest_eml_text(SAMPLE)
        expected = (
            datetime(2024, 3, 12, 10, 30, tzinfo=timezone.utc) - DEFAULT_EPOCH
        ).total_seconds() / 3600
        assert message.delivered_at == expected

    def test_custom_epoch(self):
        epoch = datetime(2024, 3, 12, 10, 30, tzinfo=timezone.utc)
        assert ingest_eml_text(SAMPLE, epoch=epoch).delivered_at == 0.0

    def test_sending_infrastructure(self):
        message = ingest_eml_text(SAMPLE)
        assert message.sending_domain == "spammer.ru"
        assert message.sending_ip == "203.0.113.9"
        assert message.dkim_signed

    def test_missing_headers_fall_back(self):
        message = ingest_eml_text("Subject: hi\n\nplain body\n")
        assert message.sender == "unknown@example.com"
        assert message.recipient == "employee@corp.example"
        assert message.delivered_at == 0.0
        assert not message.dkim_signed


class TestPartMapping:
    def test_base64_transfer_encoding_preserved(self):
        message = ingest_eml_text(SAMPLE)
        text_part = message.parts[0]
        assert text_part.content_type == ContentType.TEXT
        # The base64 evasion must survive ingestion for the filters to miss it.
        assert text_part.transfer_encoding == "base64"
        assert "https://evil.example/login" in text_part.decoded_text()

    def test_html_attachment_flagged(self):
        message = ingest_eml_text(SAMPLE)
        html_part = message.parts[1]
        assert html_part.content_type == ContentType.HTML
        assert html_part.filename == "invoice.html"
        assert not html_part.inline

    def test_binary_attachment_becomes_sniffable_blob(self):
        eml = textwrap.dedent("""\
            From: a@b.example
            Subject: attachment
            Content-Type: application/pdf; name="doc.pdf"
            Content-Disposition: attachment; filename="doc.pdf"
            Content-Transfer-Encoding: base64

            JVBERi0xLjcgcmVzdA==
            """)
        message = ingest_eml_text(eml)
        (part,) = message.parts
        assert part.content_type == ContentType.OCTET_STREAM
        assert part.content.sniffed_kind() == "pdf"

    def test_nested_rfc822_recurses_without_duplication(self):
        eml = textwrap.dedent("""\
            From: fwd@corp.example
            Subject: FW: see attached
            Content-Type: multipart/mixed; boundary="OUTER"

            --OUTER
            Content-Type: text/plain

            outer body
            --OUTER
            Content-Type: message/rfc822

            From: original@spammer.ru
            Subject: inner
            Content-Type: text/plain

            inner body https://inner.example/x
            --OUTER--
            """)
        message = ingest_eml_text(eml)
        assert [part.content_type for part in message.parts] == [
            ContentType.TEXT,
            ContentType.EML,
        ]
        inner = message.parts[1].content
        assert isinstance(inner, EmailMessage)
        assert inner.sender == "original@spammer.ru"
        report = EmailParser().parse(message)
        assert [u.url for u in report.urls] == ["https://inner.example/x"]


class TestIngestResilience:
    """One hostile or truncated .eml must not abort a corpus ingestion."""

    def test_headerless_bytes_raise_ingest_error(self):
        with pytest.raises(IngestError, match="no headers parsed"):
            ingest_eml_bytes(b"\x00\x01\x02 not a message at all")

    def test_empty_file_raises_ingest_error(self):
        with pytest.raises(IngestError):
            ingest_eml_bytes(b"")

    def test_directory_skips_defective_files_and_continues(self, tmp_path):
        # Regression: a single undecodable sample used to abort the
        # whole directory; now it lands in the skip list with a reason
        # and every healthy neighbour still ingests.
        (tmp_path / "a_good.eml").write_text(SAMPLE)
        (tmp_path / "b_garbage.eml").write_bytes(b"\x00\xff\xfe garbage")
        (tmp_path / "c_unreadable.eml").mkdir()  # read fails with OSError
        (tmp_path / "d_good.eml").write_text(SAMPLE)

        report = ingest_directory_report(tmp_path)
        assert len(report.messages) == 2
        assert report.messages[0].ground_truth["source"].endswith("a_good.eml")
        assert report.messages[1].ground_truth["source"].endswith("d_good.eml")

        skipped = {entry["path"]: entry["reason"] for entry in report.skipped}
        assert len(skipped) == 2
        assert "no headers parsed" in skipped[str(tmp_path / "b_garbage.eml")]
        assert skipped[str(tmp_path / "c_unreadable.eml")].startswith("unreadable:")

    def test_legacy_directory_ingestion_skips_silently(self, tmp_path):
        (tmp_path / "good.eml").write_text(SAMPLE)
        (tmp_path / "bad.eml").write_bytes(b"\x00")
        messages = ingest_directory(tmp_path)
        assert len(messages) == 1

    def test_clean_directory_reports_no_skips(self, tmp_path):
        (tmp_path / "one.eml").write_text(SAMPLE)
        report = ingest_directory_report(tmp_path)
        assert report.skipped == []
        assert len(report.messages) == 1


class TestPipelineIntegration:
    def test_parser_extracts_urls_from_ingested_message(self):
        report = EmailParser().parse(ingest_eml_text(SAMPLE))
        assert {(u.url, u.method) for u in report.urls} == {
            ("https://evil.example/login", "text"),
            ("https://phish.example/portal", "html-static"),
        }
        assert report.html_attachment_paths  # the invoice opens locally

    def test_directory_ingestion_sorted_and_indexable(self, tmp_path):
        for name in ("b.eml", "a.eml", "ignored.txt"):
            (tmp_path / name).write_text(SAMPLE)
        messages = ingest_directory(tmp_path)
        assert len(messages) == 2
        assert messages[0].ground_truth["source"].endswith("a.eml")
        assert messages[1].ground_truth["source"].endswith("b.eml")

    def test_file_ingestion_records_source(self, tmp_path):
        path = tmp_path / "sample.eml"
        path.write_text(SAMPLE)
        message = ingest_eml_file(path)
        assert message.ground_truth["source"] == str(path)

    def test_crawlerbox_analyzes_ingested_message(self, small_corpus):
        from repro.core import CrawlerBox

        box = CrawlerBox.for_world(small_corpus.world)
        record = box.analyze(ingest_eml_text(SAMPLE), message_index=0)
        # The phish domains don't exist in the simulated world: every
        # crawl must surface as an error outcome, not an exception.
        assert record.extraction is not None
        assert len(record.crawls) == 2
        assert all(crawl.outcome == "nxdomain" for crawl in record.crawls)


# ----------------------------------------------------------------------
# The parsed-header memo must be invisible
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _stdlib_policy():
    """Ingest under plain ``email.policy.default`` (no memo)."""
    memo_policy = ingest_module._POLICY
    ingest_module._POLICY = email.policy.default
    try:
        yield
    finally:
        ingest_module._POLICY = memo_policy


def _ingest_outcome(raw: bytes):
    try:
        return ingest_eml_bytes(raw)
    except IngestError as error:
        return ("IngestError", str(error))


def _part_shape(part) -> dict:
    """Everything readable from one stdlib part, as plain values."""
    shape = {
        "headers": [
            (name, str(value), type(value).__name__,
             [type(defect).__name__ for defect in value.defects])
            for name, value in part.items()
        ],
        "content_type": part.get_content_type(),
        "params": part.get_params(),
        "filename": part.get_filename(),
        "disposition": part.get_content_disposition(),
        "defects": [type(defect).__name__ for defect in part.defects],
    }
    if part.is_multipart():
        shape["children"] = [_part_shape(sub) for sub in part.get_payload()]
    else:
        shape["payload"] = part.get_payload(decode=True)
    return shape


def _stdlib_shape(raw: bytes, policy):
    try:
        return _part_shape(email.message_from_bytes(raw, policy=policy))
    except Exception as error:  # noqa: BLE001 - the same failure must show on both sides
        return ("error", type(error).__name__, str(error))


def _assert_memo_invisible(raw: bytes) -> None:
    with _stdlib_policy():
        reference = _ingest_outcome(raw)
    reference_shape = _stdlib_shape(raw, email.policy.default)
    clear_header_memo()
    cold = _ingest_outcome(raw)
    warm = _ingest_outcome(raw)
    assert cold == reference
    assert warm == reference
    assert _stdlib_shape(raw, ingest_module._POLICY) == reference_shape
    assert all(len(value) <= HEADER_MEMO_MAX_VALUE for (_, value), _ in _HEADER_MEMO.items())


_WORDS = st.sampled_from([
    "Invoice", "overdue", "Päss wörd", "Пароль", "账户", "re:", "(comment)",
    '"quoted, name"', "a@b.example", "<x@y.example>", "\\", ";", ",", "=?", "?=",
])


def _encoded_word(draw) -> str:
    charset = draw(st.sampled_from(["utf-8", "UTF-8", "iso-8859-1", "x-unknown", "utf-8*en"]))
    text = draw(st.text(min_size=0, max_size=12))
    if draw(st.booleans()):
        payload = base64.b64encode(text.encode("utf-8", "surrogatepass")).decode("ascii")
        if draw(st.booleans()):
            payload = payload[:-1]  # broken padding
        return f"=?{charset}?B?{payload}?="
    payload = "".join(
        ch if ch.isalnum() and ch.isascii() else "=%02X" % (ord(ch) & 0xFF) for ch in text
    )
    return f"=?{charset}?q?{payload}?="


@st.composite
def _header_value(draw) -> str:
    pieces = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["word", "encoded", "text", "address", "ip"]))
        if kind == "word":
            pieces.append(draw(_WORDS))
        elif kind == "encoded":
            pieces.append(_encoded_word(draw))
        elif kind == "text":
            pieces.append(draw(st.text(
                st.characters(blacklist_categories=("Cs", "Cc")), max_size=16)))
        elif kind == "address":
            pieces.append(draw(st.sampled_from([
                '"Billing" <notice@mailer.example.ru>', "bob@corp.example, <eve@x.example>",
                "<<broken@", "group: a@b.example, c@d.example;", "undisclosed-recipients:;",
            ])))
        else:
            pieces.append(f"from relay ([{draw(st.integers(0, 300))}.0.113.9]) by mx")
    separator = draw(st.sampled_from([" ", "\n\t", "\r\n ", "\n "]))  # folding
    return separator.join(pieces)


_CONTENT_TYPES = [
    "text/plain", "text/html; charset=utf-8", 'text/plain; charset="unterminated',
    "text/html; charset=", "text/plain; charset=x-unknown-zz", "tExt/HTML",
    "text/html;; name*=utf-8''%E2%82%AC.html", 'text/plain; name*0="a"; name*1="b.txt"',
    'application/octet-stream; name="=?utf-8?b?w6kuYmlu?="', "garbage", "text/",
    "image/png", "multipart/mixed",
]


@st.composite
def _mime_part(draw, depth: int) -> bytes:
    kind = draw(st.sampled_from(["leaf", "multipart", "rfc822"] if depth < 2 else ["leaf"]))
    if kind == "multipart":
        boundary = f"b{depth}-{draw(st.integers(0, 99))}"
        children = draw(st.lists(_mime_part(depth + 1), min_size=1, max_size=3))
        body = b"".join(b"--" + boundary.encode() + b"\n" + child + b"\n" for child in children)
        return (f'Content-Type: multipart/mixed; boundary="{boundary}"\n\n').encode() + \
            body + b"--" + boundary.encode() + b"--\n"
    if kind == "rfc822":
        return b"Content-Type: message/rfc822\n\n" + draw(_eml_bytes(depth + 1))
    head = f"Content-Type: {draw(st.sampled_from(_CONTENT_TYPES))}\n"
    encoding = draw(st.sampled_from(["", "base64", "quoted-printable", "8bit", "x-bogus"]))
    if encoding:
        head += f"Content-Transfer-Encoding: {encoding}\n"
    if draw(st.booleans()):
        filename = draw(st.sampled_from(["a.html", "=?utf-8?q?f=C3=BC.txt?=", "", "x\"y"]))
        head += f'Content-Disposition: attachment; filename="{filename}"\n'
    body = draw(st.binary(max_size=40)) if draw(st.booleans()) else \
        draw(st.text(max_size=40)).encode("utf-8", "surrogatepass")
    if encoding == "base64" and draw(st.booleans()):
        body = base64.encodebytes(body)
    return head.encode() + b"\n" + body


@st.composite
def _eml_bytes(draw, depth: int = 0) -> bytes:
    names = ["From", "To", "Subject", "Date", "Received", "Return-Path", "Delivered-To",
             "DKIM-Signature", "MIME-Version", "X-Mailer", "Reply-To", "Message-ID"]
    lines = []
    for _ in range(draw(st.integers(0, 8))):  # duplicates allowed
        name = draw(st.sampled_from(names))
        value = draw(st.one_of(_header_value(), st.sampled_from([
            "Tue, 12 Mar 2024 10:30:00 +0000", "Tue, 31 Feb 2024 99:99:99 +9999", "",
        ])))
        lines.append(f"{name}: {value}\n".encode("utf-8", "surrogatepass"))
    if draw(st.booleans()):
        lines.append(b"Subject: caf\xe9 \xff\xfe raw bytes\n")  # surrogateescape
    return b"".join(lines) + draw(_mime_part(depth))


def _render_hostile(message, depth: int = 0) -> bytes:
    """A hostile corpus message as RFC-822 bytes: headers as built,
    text parts verbatim, archives as base64 blobs, nested messages as
    ``message/rfc822``."""
    boundary = f"hostile-{depth}"
    head = [f"From: {message.sender}", f"To: {message.recipient}",
            f"Subject: {message.subject}", "MIME-Version: 1.0"]
    head += [f"{name}: {value}" for name, value in message.headers.items()]
    head.append(f'Content-Type: multipart/mixed; boundary="{boundary}"')
    chunks = ["\n".join(head).encode(), b"\n\n"]
    for part in message.parts:
        disposition = "inline" if part.inline else "attachment"
        if part.filename:
            disposition += f'; filename="{part.filename}"'
        chunks.append(f"--{boundary}\nContent-Disposition: {disposition}\n".encode())
        if isinstance(part.content, EmailMessage):
            chunks += [b"Content-Type: message/rfc822\n\n",
                       _render_hostile(part.content, depth + 1)]
        elif isinstance(part.content, str):
            encoding = "base64" if part.transfer_encoding == "base64" else "8bit"
            chunks.append(f"Content-Type: {part.content_type}; charset=utf-8\n"
                          f"Content-Transfer-Encoding: {encoding}\n\n"
                          f"{part.content}".encode())
        else:
            chunks += [b"Content-Type: application/zip\nContent-Transfer-Encoding: base64\n\n",
                       base64.encodebytes(ZIP_MAGIC + repr(part.content).encode())]
        chunks.append(b"\n")
    chunks.append(f"--{boundary}--\n".encode())
    return b"".join(chunks)


class TestHeaderMemoIsInvisible:
    @settings(max_examples=150, deadline=None)
    @given(raw=_eml_bytes())
    def test_memo_ingest_equals_stdlib_ingest(self, raw):
        _assert_memo_invisible(raw)

    @pytest.mark.parametrize("raw", [
        b"",
        b"\x00\x01\x02 not a message at all",
        SAMPLE.encode(),
        b"Content-Type: text/plain; charset=x-unknown-zz\n\nbody\n",
        b"From: a@b.example\nFrom: c@d.example\nTo: x@y\n\tfolded\n\nbody\n",
    ])
    def test_fixed_inputs(self, raw):
        _assert_memo_invisible(raw)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_hostile_shape(self, shape):
        _assert_memo_invisible(_render_hostile(hostile_message(shape, seed=7)))


class TestHeaderMemoBounds:
    def test_memo_evicts_at_its_constant(self):
        clear_header_memo()
        count = HEADER_MEMO_SIZE + 40
        headers = "".join(f"X-Probe-{i}: value {i}\n" for i in range(count))
        ingest_eml_text(headers + "\nbody\n")
        info = header_memo_info()
        assert info["size"] == info["maxsize"] == HEADER_MEMO_SIZE
        assert info["misses"] >= count
        keys = {key for key, _ in _HEADER_MEMO.items()}
        assert ("X-Probe-0", "value 0") not in keys  # least recent, evicted
        assert (f"X-Probe-{count - 1}", f"value {count - 1}") in keys

    def test_over_length_value_is_parsed_but_never_stored(self):
        clear_header_memo()
        at_cap = "a" * HEADER_MEMO_MAX_VALUE
        over = "b" * (HEADER_MEMO_MAX_VALUE + 1)
        message = ingest_eml_text(f"X-At-Cap: {at_cap}\nX-Over: {over}\n\nbody\n")
        assert message.headers == {"X-At-Cap": at_cap, "X-Over": over}
        keys = {key for key, _ in _HEADER_MEMO.items()}
        assert ("X-At-Cap", at_cap) in keys
        assert not any(name == "X-Over" for name, _ in keys)
        ingest_eml_bytes(_render_hostile(hostile_message("header-giant")))
        assert all(len(value) <= HEADER_MEMO_MAX_VALUE for (_, value), _ in _HEADER_MEMO.items())

    def test_repeat_fetch_hits(self):
        clear_header_memo()
        ingest_eml_text(SAMPLE)
        first = header_memo_info()
        ingest_eml_text(SAMPLE)
        second = header_memo_info()
        assert second["misses"] == first["misses"]  # nothing new to parse
        assert second["hits"] > first["hits"]
