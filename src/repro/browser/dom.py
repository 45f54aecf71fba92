"""HTML parsing into a light DOM structure.

CrawlerBox both *crawls* remote pages and *loads local HTML attachments*
(Section V-B: HTML files "loaded locally without changing the window's
URL").  Either way the browser needs the document's inline scripts,
referenced resources, forms, and identified elements — this module
extracts them with a stdlib ``HTMLParser``.

Kits serve the same markup to many visits, so :func:`parse_html` keeps
each distinct body's document in a bounded :class:`repro._memo.LRU`
keyed by the body itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html.parser import HTMLParser

from repro._memo import LRU


@dataclass
class DomElement:
    """An element captured from markup (tag, attributes, text)."""

    tag: str
    attrs: dict[str, str] = field(default_factory=dict)
    text: str = ""

    @property
    def element_id(self) -> str | None:
        return self.attrs.get("id")


@dataclass
class FormInfo:
    action: str = ""
    method: str = "GET"
    inputs: list[dict[str, str]] = field(default_factory=list)

    @property
    def has_password_field(self) -> bool:
        return any(item.get("type", "").lower() == "password" for item in self.inputs)


@dataclass
class ParsedDocument:
    """The statically-extractable structure of one HTML document."""

    title: str = ""
    inline_scripts: list[str] = field(default_factory=list)
    external_scripts: list[str] = field(default_factory=list)
    resource_urls: list[str] = field(default_factory=list)  # img src, link href
    anchors: list[str] = field(default_factory=list)  # a href
    forms: list[FormInfo] = field(default_factory=list)
    elements: list[DomElement] = field(default_factory=list)
    text: str = ""

    def element_by_id(self, element_id: str) -> DomElement | None:
        for element in self.elements:
            if element.element_id == element_id:
                return element
        return None


class _DomBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.document = ParsedDocument()
        self._in_script = False
        self._in_title = False
        self._script_chunks: list[str] = []
        self._text_chunks: list[str] = []
        self._current_form: FormInfo | None = None
        self._element_stack: list[DomElement] = []

    def handle_starttag(self, tag: str, attrs_list) -> None:
        attrs = {name: (value or "") for name, value in attrs_list}
        tag = tag.lower()
        element = DomElement(tag=tag, attrs=attrs)
        self.document.elements.append(element)
        self._element_stack.append(element)

        if tag == "script":
            src = attrs.get("src")
            if src:
                self.document.external_scripts.append(src)
            else:
                self._in_script = True
                self._script_chunks = []
        elif tag == "title":
            self._in_title = True
        elif tag == "img" and attrs.get("src"):
            self.document.resource_urls.append(attrs["src"])
        elif tag == "link" and attrs.get("href"):
            self.document.resource_urls.append(attrs["href"])
        elif tag == "a" and attrs.get("href"):
            self.document.anchors.append(attrs["href"])
        elif tag == "iframe" and attrs.get("src"):
            self.document.resource_urls.append(attrs["src"])
        elif tag == "form":
            self._current_form = FormInfo(
                action=attrs.get("action", ""), method=attrs.get("method", "GET").upper()
            )
            self.document.forms.append(self._current_form)
        elif tag == "input" and self._current_form is not None:
            self._current_form.inputs.append(attrs)

    def handle_endtag(self, tag: str) -> None:
        tag = tag.lower()
        if tag == "script" and self._in_script:
            self._in_script = False
            self.document.inline_scripts.append("".join(self._script_chunks))
        elif tag == "title":
            self._in_title = False
        elif tag == "form":
            self._current_form = None
        while self._element_stack and self._element_stack[-1].tag != tag:
            self._element_stack.pop()
        if self._element_stack:
            self._element_stack.pop()

    def handle_data(self, data: str) -> None:
        if self._in_script:
            self._script_chunks.append(data)
            return
        if self._in_title:
            self.document.title += data
            return
        stripped = data.strip()
        if stripped:
            self._text_chunks.append(stripped)
            if self._element_stack:
                self._element_stack[-1].text += stripped


#: Distinct page bodies kept parsed.  A seed-1 run at scale 0.05 loads
#: 568 pages with 219 distinct bodies.
DOM_MEMO_SIZE = 512

_DOM_MEMO: LRU[ParsedDocument] = LRU(DOM_MEMO_SIZE)


def dom_memo_info() -> dict:
    """Hit/miss/size counters of the parsed-document memo."""
    return _DOM_MEMO.info()


def clear_dom_memo() -> None:
    """Drop all memoised documents and reset the counters."""
    _DOM_MEMO.clear()


def _parse_document(html: str) -> ParsedDocument:
    builder = _DomBuilder()
    builder.feed(html)
    builder.close()
    builder.document.text = " ".join(builder._text_chunks)
    return builder.document


def parse_html(html: str) -> ParsedDocument:
    """Parse markup into a :class:`ParsedDocument` (memoised per body).

    A memoised document is shared by every page with that body, so
    callers must treat it as read-only.
    """
    document = _DOM_MEMO.get(html)
    if document is None:
        document = _parse_document(html)
        _DOM_MEMO.put(html, document)
    return document
