"""Service mode: the always-on analysis daemon behind ``repro serve``.

The paper's CrawlerBox was not a batch job — it ran continuously for
ten months against a live reporting stream from five companies,
analyzing each message "as soon as they are tagged by experts".  This
package turns the batch engine of :mod:`repro.runner` into that shape:

- :mod:`~repro.serve.protocol` — the line-delimited JSON session
  protocol (plus minimal HTTP for ``/stats`` and ``/healthz``): raw
  RFC-822 bytes in, per-message verdict records out, every refusal
  machine-readable.
- :mod:`~repro.serve.admission` — deterministic token-bucket admission
  control on a *logical* clock (the arrival sequence number), so the
  shed set is a pure function of arrival order + budget, denominated
  in the PR-5 work units each admitted message may consume.
- :mod:`~repro.serve.scheduler` — per-reporter fair queues drained
  round-robin into micro-batches, modeling the paper's five-company
  reporting stream: one flooding reporter cannot starve the others.
- :mod:`~repro.serve.engine` — the batch runner's scheduler, run
  persistently over its two transports (inline at ``--jobs 1``, worker
  processes above); a free worker pulls its next micro-batch straight
  from the fair queues instead of from a fixed corpus.
- :mod:`~repro.serve.server` — the daemon: sessions, backpressure,
  checkpointing, rolling compaction, drain-on-SIGTERM, manifest
  lifecycle (``serving`` -> ``stopped``).  Its ``ServeConfig`` is the
  batch path's ``RunnerConfig`` plus service settings.
- :mod:`~repro.serve.client` — the submission client behind
  ``repro submit`` (and the tests), including hint-honoring automatic
  retry on ``overloaded``.
- :mod:`~repro.serve.netchaos` — the deterministic hostile-client
  fault engine (slowloris, floods, fuzz, flapping) that proves the
  ingress hardening holds: well-behaved reporters' records stay
  byte-identical under a hostile fleet.

Determinism contract (the PR-5 invariant, extended end to end): every
record depends only on (seed material, admission index), admission
state snapshots into the manifest at drain, and a restarted daemon
replaying the remaining transcript produces records byte-identical to
an uninterrupted daemon — and to a batch run over the same messages.
A restart under run settings that would change a record is refused;
only the disk weather may differ.
"""

from repro.serve.admission import AdmissionConfig, AdmissionController, AdmissionDecision
from repro.serve.client import ServeClient, SubmissionOutcome
from repro.serve.engine import InlineEngine, ProcessEngine, ServeJob, build_engine
from repro.serve.netchaos import (
    CLIENT_FAULT_PROFILES,
    ChaosClient,
    ChaosReport,
    ClientFaultEngine,
    ClientFaultProfile,
    client_fault_profile,
    fuzz_corpus,
    run_chaos_fleet,
)
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    LineChannel,
    ProtocolError,
    decode_line,
    encode_line,
    http_response,
    send_bounded,
)
from repro.serve.scheduler import FairScheduler
from repro.serve.server import ServeConfig, ServeDaemon

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "CLIENT_FAULT_PROFILES",
    "ChaosClient",
    "ChaosReport",
    "ClientFaultEngine",
    "ClientFaultProfile",
    "FairScheduler",
    "InlineEngine",
    "LineChannel",
    "MAX_LINE_BYTES",
    "ProcessEngine",
    "ProtocolError",
    "ServeClient",
    "ServeConfig",
    "ServeDaemon",
    "ServeJob",
    "SubmissionOutcome",
    "build_engine",
    "client_fault_profile",
    "decode_line",
    "encode_line",
    "fuzz_corpus",
    "http_response",
    "run_chaos_fleet",
    "send_bounded",
]
