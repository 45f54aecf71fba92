"""Per-reporter fair queues, drained round-robin into micro-batches.

The paper's reporting stream is multi-tenant — five companies feeding
one CrawlerBox — and enterprise phishing arrives in bursts: one tenant
flooding thousands of reports must not starve the quiet four.  The
queue keeps one FIFO per reporter and fills each micro-batch by
cycling the *active* reporters (those with queued work), taking one
submission per reporter per cycle.  A batch of size B drawn while R
reporters are active therefore contains at least ``min(B // R, q)``
submissions from every reporter with ``q`` queued — a flooding
reporter's backlog only consumes the slots nobody else wants.

The serve engine pops a micro-batch only when a worker is free to take
it (see :class:`~repro.serve.engine.ProcessEngine`), so this order is
the order workers analyse in.

Scheduling order deliberately does **not** affect record bytes: every
record depends only on (seed material, admission index), so fairness
is free to optimize latency without touching the determinism contract.
"""

from __future__ import annotations

import threading
from collections import deque


class FairScheduler:
    """Round-robin fair queueing over per-reporter FIFOs."""

    def __init__(self):
        self._lock = threading.Lock()
        self._queues: dict[str, deque] = {}
        #: Rotation of reporters that currently have queued work.
        self._active: deque[str] = deque()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return sum(len(queue) for queue in self._queues.values())

    def depths(self) -> dict[str, int]:
        """Queued submissions per reporter (for ``/stats``)."""
        with self._lock:
            return {
                reporter: len(queue)
                for reporter, queue in sorted(self._queues.items())
                if queue
            }

    # ------------------------------------------------------------------
    def push(self, reporter: str, item: object) -> None:
        """Enqueue one admitted submission for ``reporter``."""
        with self._lock:
            queue = self._queues.get(reporter)
            if queue is None:
                queue = self._queues[reporter] = deque()
            if not queue:
                self._active.append(reporter)
            queue.append(item)

    def next_batch(self, max_size: int) -> list:
        """Up to ``max_size`` submissions, one per active reporter per
        round-robin cycle (``[]`` when nothing is queued)."""
        with self._lock:
            batch: list = []
            while self._active and len(batch) < max_size:
                reporter = self._active.popleft()
                queue = self._queues[reporter]
                batch.append(queue.popleft())
                if queue:
                    self._active.append(reporter)
            return batch
