"""Seeded hostile-message generator: pathological inputs by construction.

The calibrated corpus (:mod:`repro.dataset.generator`) models what the
paper *measured*; this module models what a production CrawlerBox also
receives — user-reported messages that are malformed or deliberately
pathological.  Every shape here targets one specific defense:

==================  ==================================================
shape               expected outcome
==================  ==================================================
``deep-nesting``    quarantined: ``mime-depth`` (nested archive chain)
``part-bomb``       quarantined: ``part-count`` (hundreds of leaves)
``base64-bomb``     quarantined: ``decoded-bytes`` (one huge payload,
                    estimated without decoding)
``total-bomb``      quarantined: ``total-decoded-bytes`` (many parts
                    each under the per-part cap)
``archive-bomb``    quarantined: ``archive-entries`` (zip bomb)
``rfc822-chain``    quarantined: ``rfc822-depth`` (message/rfc822
                    recursion)
``header-bomb``     quarantined: ``header-count``
``header-giant``    quarantined: ``header-bytes``
``js-loop``         *passes* the structural guard; the runaway script
                    is stopped by the JS step limit (default budget) or
                    by the work budget when ``--budget`` is tighter —
                    degrading stage ``dynamic-html`` to ``failed``.
==================  ==================================================

:data:`EXPECTED_VIOLATIONS` records the mapping so tests (and the CI
hostile-ingest job) can assert not just "nothing crashed" but that each
shape tripped the *intended* limit.

Determinism: :func:`hostile_corpus` is a pure function of ``(seed,
copies)`` — both transports regenerate identical hostile messages, so
hostile-ingest runs stay byte-identical across inline/process executors
and worker counts.
"""

from __future__ import annotations

import random

from repro.mail.attachments import ArchiveFile
from repro.mail.message import ContentType, EmailMessage, MessagePart

#: shape name -> the guard limit its quarantine report must lead with
#: (None = the shape passes the guard and is handled downstream).
EXPECTED_VIOLATIONS: dict[str, str | None] = {
    "deep-nesting": "mime-depth",
    "part-bomb": "part-count",
    "base64-bomb": "decoded-bytes",
    "total-bomb": "total-decoded-bytes",
    "archive-bomb": "archive-entries",
    "rfc822-chain": "rfc822-depth",
    "header-bomb": "header-count",
    "header-giant": "header-bytes",
    "js-loop": None,
}

#: Shape emission order (fixed, so message indices are stable).
SHAPES: tuple[str, ...] = tuple(EXPECTED_VIOLATIONS)


def _base(shape: str, rng: random.Random) -> EmailMessage:
    return EmailMessage(
        sender=f"attacker{rng.randrange(1000)}@hostile.example",
        recipient="employee@corp.example",
        subject=f"hostile sample: {shape} #{rng.randrange(10_000)}",
        delivered_at=float(rng.randrange(0, 7000)),
        dkim_signed=False,
        ground_truth={"source": "hostile", "shape": shape},
    )


def _deep_nesting(rng: random.Random) -> EmailMessage:
    # 24 nested archives: each level adds one mime-depth (default cap 16).
    inner: object = "payload.txt contents"
    for level in range(24):
        inner = ArchiveFile().add(f"layer{level}.zip", inner)
    message = _base("deep-nesting", rng)
    return message.add_part(
        MessagePart(ContentType.ZIP, inner, filename="matryoshka.zip", inline=False)
    )


def _part_bomb(rng: random.Random) -> EmailMessage:
    message = _base("part-bomb", rng)
    for index in range(600):  # default part cap 512
        message.add_part(MessagePart.text(f"fragment {index}"))
    return message


def _base64_bomb(rng: random.Random) -> EmailMessage:
    # 6M encoded chars estimate to ~4.5 MiB decoded (cap 4 MiB); the
    # guard sizes it arithmetically and never materializes the decode.
    message = _base("base64-bomb", rng)
    message.add_part(
        MessagePart(
            ContentType.TEXT,
            "QUJD" * 1_500_000,
            transfer_encoding="base64",
            filename="invoice.txt",
        )
    )
    return message


def _total_bomb(rng: random.Random) -> EmailMessage:
    # 9 parts x 2 MiB: each under the 4 MiB per-part cap, 18 MiB total
    # over the 16 MiB whole-message cap.
    message = _base("total-bomb", rng)
    for index in range(9):
        message.add_part(MessagePart.text(("x%d" % index) * (1 << 20)))
    return message


def _archive_bomb(rng: random.Random) -> EmailMessage:
    archive = ArchiveFile()
    for index in range(600):  # default entry cap 512
        archive.add(f"entry{index:04d}.txt", "decompresses forever")
    message = _base("archive-bomb", rng)
    return message.add_part(
        MessagePart(ContentType.ZIP, archive, filename="bomb.zip", inline=False)
    )


def _rfc822_chain(rng: random.Random) -> EmailMessage:
    inner = _base("rfc822-chain", rng)
    inner.add_part(MessagePart.text("the innermost message"))
    for level in range(12):  # default rfc822 cap 8
        wrapper = _base("rfc822-chain", rng)
        wrapper.add_part(
            MessagePart(
                ContentType.EML, inner, filename=f"fwd{level}.eml", inline=False
            )
        )
        inner = wrapper
    return inner


def _header_bomb(rng: random.Random) -> EmailMessage:
    message = _base("header-bomb", rng)
    for index in range(300):  # default header cap 256
        message.headers[f"X-Hostile-{index:04d}"] = f"value {index}"
    message.add_part(MessagePart.text("see headers"))
    return message


def _header_giant(rng: random.Random) -> EmailMessage:
    message = _base("header-giant", rng)
    message.headers["X-Giant"] = "A" * 20_000  # default cap 16 KiB
    message.add_part(MessagePart.text("one very long header"))
    return message


def _js_loop(rng: random.Random) -> EmailMessage:
    # Structurally clean: the guard admits it, and the runaway loop is
    # the work budget's problem (or the JS step limit's, if unlimited).
    message = _base("js-loop", rng)
    markup = (
        "<html><body><p>Loading your document...</p>"
        "<script>var i = 0; while (i < 900000000) { i = i + 1; }</script>"
        "</body></html>"
    )
    message.add_part(MessagePart.html(markup, filename="loader.html", inline=False))
    return message


_BUILDERS = {
    "deep-nesting": _deep_nesting,
    "part-bomb": _part_bomb,
    "base64-bomb": _base64_bomb,
    "total-bomb": _total_bomb,
    "archive-bomb": _archive_bomb,
    "rfc822-chain": _rfc822_chain,
    "header-bomb": _header_bomb,
    "header-giant": _header_giant,
    "js-loop": _js_loop,
}


def hostile_message(shape: str, seed: int = 0) -> EmailMessage:
    """One hostile message of ``shape`` — equal to the corresponding
    entry of ``hostile_corpus(seed, copies=1)``."""
    return _BUILDERS[shape](random.Random(f"{seed}:0:{shape}"))


def hostile_corpus(seed: int = 0, copies: int = 1) -> list[EmailMessage]:
    """``copies`` of every shape, in fixed shape order per copy.

    Index layout is ``copy * len(SHAPES) + shape_position``, identical
    on every regeneration with the same arguments.
    """
    messages: list[EmailMessage] = []
    for copy in range(copies):
        for shape in SHAPES:
            messages.append(_BUILDERS[shape](random.Random(f"{seed}:{copy}:{shape}")))
    return messages
