"""Crawl-outcome classification into the Section V buckets.

The classifier works from observable page behaviour only — form
structure, revealed/hidden state after script execution, textual
markers — never from generator ground truth.
"""

from __future__ import annotations

from repro.browser.browser import VisitOutcome, VisitResult
from repro.browser.session import PageSession
from repro.js.interp import JSObject
from repro.js.stdlib import js_to_python


class MessageCategory:
    """The five Section V buckets (plus 'other' for anything unmatched)."""

    NO_RESOURCES = "no_web_resources"
    ERROR = "error_page"
    INTERACTION = "interaction_required"
    DOWNLOAD = "download"
    ACTIVE_PHISHING = "active_phishing"
    OTHER = "other"
    #: Not a Section V bucket: the ingestion guard rejected the message
    #: before analysis (see :mod:`repro.mail.guard`).
    QUARANTINED = "quarantined"


class PageClass:
    """Per-URL crawl classifications."""

    ERROR = "error"
    DOWNLOAD = "download"
    LOGIN_FORM = "login_form"  # credential form visible after execution
    GATED_LOGIN = "gated_login"  # OTP / challenge in front of a login flow
    INTERACTION = "interaction"  # file-share or classic-CAPTCHA wall
    BENIGN = "benign"


_INTERACTION_MARKERS = (
    "dropbox",
    "google drive",
    "you need access",
    "ask for access",
    "request access",
    "select all images",
    "shared document",
    "shared \"",
)

_GATE_MARKERS = (
    "one-time password",
    "solve to continue",
    "enter the code",
    "security check",
)

_CHALLENGE_MARKERS = (
    "checking your browser",
    "just a moment",
    "verifying",
)


def password_form_visible(session: PageSession) -> bool:
    """A credential form exists and is visible after script execution."""
    has_password_form = any(form.has_password_field for form in session.parsed.forms)
    if not has_password_form:
        return False
    container = session.elements.get("content")
    if container is None:
        return True  # not hidden behind a reveal gate
    style = container.get("style")
    if isinstance(style, JSObject):
        display = js_to_python(style.get("display"))
        return display == "block"
    return False


def classify_page(session: PageSession) -> str:
    """Classify one loaded page."""
    text = (session.parsed.text or "").lower()
    title = (session.parsed.title or "").lower()
    combined = f"{title} {text}"

    if password_form_visible(session):
        return PageClass.LOGIN_FORM
    if any(marker in combined for marker in _INTERACTION_MARKERS):
        return PageClass.INTERACTION
    if any(marker in combined for marker in _GATE_MARKERS) and session.parsed.forms:
        return PageClass.GATED_LOGIN
    if any(marker in combined for marker in _CHALLENGE_MARKERS):
        # Stuck on an unpassed bot-detection interstitial.
        return PageClass.ERROR
    return PageClass.BENIGN


def classify_visit(result: VisitResult) -> str:
    """Classify one crawl (URL -> final state)."""
    final = result.final_response
    if final is not None and final.status == 200:
        content_type = final.content_type or ""
        if not content_type.startswith("text/html"):
            return PageClass.DOWNLOAD
    if result.outcome in (
        VisitOutcome.NXDOMAIN,
        VisitOutcome.CONNECTION_FAILED,
        VisitOutcome.TLS_ERROR,
        VisitOutcome.BAD_URL,
        VisitOutcome.REDIRECT_LOOP,
        VisitOutcome.UNREACHABLE,
    ):
        return PageClass.ERROR
    session = result.final_session
    if session is None:
        return PageClass.ERROR
    page_class = classify_page(session)
    if page_class == PageClass.BENIGN and result.outcome == VisitOutcome.HTTP_ERROR:
        return PageClass.ERROR
    return page_class


#: Priority when a message yields several crawls: the most malicious
#: observation wins.
_PAGE_PRIORITY = (
    PageClass.LOGIN_FORM,
    PageClass.GATED_LOGIN,
    PageClass.DOWNLOAD,
    PageClass.INTERACTION,
    PageClass.ERROR,
    PageClass.BENIGN,
)


def aggregate_message_category(
    had_urls: bool, page_classes: list[str], local_login_form: bool = False
) -> str:
    """Combine per-URL classes into the message-level bucket."""
    if local_login_form:
        # An HTML attachment rendered a credential form locally.
        return MessageCategory.ACTIVE_PHISHING
    if not had_urls and not page_classes:
        return MessageCategory.NO_RESOURCES
    for page_class in _PAGE_PRIORITY:
        if page_class in page_classes:
            if page_class in (PageClass.LOGIN_FORM, PageClass.GATED_LOGIN):
                return MessageCategory.ACTIVE_PHISHING
            if page_class == PageClass.DOWNLOAD:
                return MessageCategory.DOWNLOAD
            if page_class == PageClass.INTERACTION:
                return MessageCategory.INTERACTION
            if page_class == PageClass.ERROR:
                return MessageCategory.ERROR
            return MessageCategory.OTHER
    return MessageCategory.OTHER
