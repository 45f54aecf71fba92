"""A small thread-safe LRU shared by the hot-path memos.

Four memos sit on the analysis hot path: the JS parse cache
(:mod:`repro.js.parser`, source hash -> shared ``Program``), the
parsed-document memo (:mod:`repro.browser.dom`, page body -> shared
``ParsedDocument``), the screenshot fingerprint memo
(:mod:`repro.browser.render`, render inputs -> ``(phash, dhash)``) and
the parsed-header memo (:mod:`repro.mail.ingest`, ``(name, value)`` ->
shared stdlib header object).  Each maps a key that fully determines a
pure computation to its result, and no caller mutates a shared result,
so all four are invisible in outputs; they differ only in what they
store and in their capacity, which each owner fixes as a module
constant.

Stdlib-only and at the package top level, like :mod:`repro._budget`,
so leaf modules can import it without an import cycle.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

V = TypeVar("V")


class LRU(Generic[V]):
    """Bounded least-recently-used map with hit/miss counters.

    ``get`` returns ``None`` on a miss, so ``None`` cannot be stored.
    Two threads that miss on the same key both compute and both
    ``put``; for a pure computation the second write is a no-op in
    effect.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, V] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> V | None:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: V) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def items(self) -> list[tuple[Hashable, V]]:
        """A snapshot of the entries, least recently used first."""
        with self._lock:
            return list(self._entries.items())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def info(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }
