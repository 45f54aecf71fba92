"""Golden weather: pinned digests of every seeded-chaos schedule.

The same-seed tests elsewhere compare one version of an engine with
itself, so a change to the key format (the ``:``-joined coordinates
hashed into each decision's RNG) or to the order of probability bands
would pass them while silently changing every faulted record.  These
digests were taken once and must never be edited: a schedule change
fails here, by name.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import CrawlerBox
from repro.serve.netchaos import ClientFaultEngine, client_fault_profile, fuzz_corpus
from repro.storage.faults import StorageFaultEngine, storage_fault_profile
from repro.web.faults import FaultEngine, fault_profile
from repro.web.http import HttpRequest, HttpResponse
from repro.web.network import Network


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _outcome(call) -> str:
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - classifying injected faults
        return f"{type(exc).__name__}:{getattr(exc, 'kind', '?')}:{exc}"
    return repr(result)


def _shaped(response: HttpResponse) -> str:
    return (
        f"{response.status}|{getattr(response, 'fault_kind', '-')}|"
        f"{response.headers.items()}|{response.body}"
    )


def test_web_engine_transcript():
    engine = FaultEngine(fault_profile("hostile"), seed=41)
    lines = []
    for index in range(24):
        host = f"Host{index}.Example"
        lines.append(f"trait {host} {engine.flaky_dead_attempts(host)}")
        for attempt in range(4):
            for hour in (0.0, 1.5, 24.0, 700.25):
                for scheme in ("https", "http"):
                    request = HttpRequest.get(f"{scheme}://{host}/p", timestamp=hour)
                    request.fault_attempt = attempt
                    lines.append(_outcome(lambda: engine.check_connection(request)))
                    served = HttpResponse(body="ok")
                    lines.append(
                        _outcome(lambda: _shaped(engine.shape_response(request, served)))
                    )
            lines.append(_outcome(lambda: engine.check_lookup(host, 3.0 + attempt)))
    assert _digest(lines) == (
        "f59bd99c692953cc1a9c203128f6ecb9ebc5b33cbf0d24b96d9a96bfdb0a87b1"
    )


def _storage_transcript(profile: str) -> str:
    engine = StorageFaultEngine(storage_fault_profile(profile), seed=13)
    lines = []
    for op in range(300):
        for name in ("records.jsonl", "manifest.json", "index.bin"):
            path = f"/ckpt/{op % 7}/{name}"
            fault = engine.write_fault(path, 64 + op)
            if fault is None:
                lines.append("write ok")
            else:
                error, prefix = fault
                lines.append(
                    f"write {type(error).__name__} {error.errno} {prefix} "
                    f"{getattr(error, 'written', '-')} {error}"
                )
            lines.append(_outcome(lambda: engine.check_fsync(path)))
            lines.append(_outcome(lambda: engine.check_replace(path)))
    lines.append(repr(sorted(engine.injected.items())))
    return _digest(lines)


def test_storage_engine_transcript_heavy():
    assert _storage_transcript("heavy") == (
        "4286f90174cf62a85ec80d958e8eb18a09966388c5611d392020fc8ecdd9abf5"
    )


def test_storage_engine_transcript_hostile():
    assert _storage_transcript("hostile") == (
        "900c5a43eff0e1c51af4e121b1212a295ef4210d49ddf3e7b300bb6fee1bcaa4"
    )


def test_client_engine_transcript():
    engine = ClientFaultEngine(client_fault_profile("hostile"), seed=17)
    lines = [
        repr(dataclasses.astuple(engine.behavior(client, op)))
        for client in ("chaos-0", "chaos-1", "reporter-x")
        for op in range(200)
    ]
    lines.append(repr(sorted(engine.injected.items())))
    assert _digest(lines) == (
        "5dbc7ff0637553324e312de03d486d1751b4f61cb224b23c00f3d16342cc53e1"
    )


def test_fuzz_corpus_transcript():
    lines = [line.hex() for seed in (0, 2024) for line in fuzz_corpus(seed, 64)]
    assert _digest(lines) == (
        "5a91408a853df609893208803444f36eb9065de21139b8c9caf8155bac11bff9"
    )


def test_message_seed_transcript():
    box = CrawlerBox(Network(), rng=random.Random(7))
    lines = [str(box.message_seed(index)) for index in range(100)]
    assert _digest(lines) == (
        "8b95628cc6c00360140825824a84eacaf9b2a141b02ab5975f7c60db234bf322"
    )


_PART = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(max_size=12),
)


@given(st.lists(_PART, min_size=1, max_size=6))
def test_keyed_seed_is_the_blake2b_recipe(parts):
    keyed_seed = pytest.importorskip("repro._chaos").keyed_seed
    digest = hashlib.blake2b(
        ":".join(map(str, parts)).encode("utf-8"), digest_size=8
    ).digest()
    assert keyed_seed(*parts) == int.from_bytes(digest, "big")
