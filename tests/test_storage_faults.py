"""Storage-fault injection and the crash-consistent durable-write layer.

Covers the determinism contract of :class:`~repro.storage.faults.
StorageFaultEngine` (every decision a function of ``(seed, path key,
op, op_index)`` and the earlier ops on that file; ENOSPC episodes never
chain), the rewind semantics of :class:`~repro.storage.
durable.DurableFile` (a failed append never leaves interior corruption
for a retry to concatenate onto), the bounded-retry discipline, torn
renames, and the end-to-end contract: a full run under the ``heavy``
storage-fault profile exports byte-identical records to a fault-free
run on both executors, and its checkpoint is fsck-clean.
"""

from __future__ import annotations

import errno
import json
import pathlib

import pytest

from repro.cli import main
from repro.core.export import encode_record_line
from repro.runner import CheckpointStore
from repro.runner.checkpoint import ManifestCorrupt
from repro.storage.durable import (
    RETRY_ATTEMPTS,
    DurableFile,
    durable_write_text,
    install_storage_faults,
    retrying,
)
from repro.storage.faults import (
    STORAGE_FAULT_PROFILES,
    FsyncFailure,
    InjectedDiskFull,
    ShortWrite,
    StorageFaultEngine,
    StorageFaultProfile,
    TornRename,
    storage_fault_profile,
)

SEED, SCALE = 31, 0.02


@pytest.fixture(autouse=True)
def _clean_engine():
    """The engine is process-global: never leak one into other tests."""
    yield
    install_storage_faults(None)


class FakeEngine:
    """A scripted stand-in: fail exactly the operations the test says.

    Duck-types the three interception points of StorageFaultEngine, so
    tests control the failure schedule instead of probabilities.
    """

    active = True

    def __init__(self):
        #: Popped per write: None = succeed, (error, prefix) = inject.
        self.write_script: list = []
        self.fail_fsync = 0
        self.fail_replace = 0
        #: Only writes to these basenames are scripted ("" = all).
        self.only = ""

    def _mine(self, path) -> bool:
        return not self.only or pathlib.PurePath(path).name == self.only

    def write_fault(self, path, nbytes):
        if self.write_script and self._mine(path):
            return self.write_script.pop(0)
        return None

    def check_fsync(self, path):
        if self.fail_fsync > 0 and self._mine(path):
            self.fail_fsync -= 1
            raise FsyncFailure(f"{path}: fsync failed (scripted)")

    def check_replace(self, path):
        if self.fail_replace > 0 and self._mine(path):
            self.fail_replace -= 1
            raise TornRename(f"{path}: torn rename (scripted)")


def _decisions(engine: StorageFaultEngine, path: str, n: int) -> list:
    """The observable fault sequence for n same-sized writes to path."""
    out = []
    for _ in range(n):
        fault = engine.write_fault(path, 100)
        out.append(None if fault is None else (type(fault[0]).kind, fault[1]))
    return out


class TestEngineDeterminism:
    def test_same_seed_same_weather(self):
        profile = storage_fault_profile("hostile")
        a = _decisions(StorageFaultEngine(profile, seed=7), "records.jsonl", 500)
        b = _decisions(StorageFaultEngine(profile, seed=7), "records.jsonl", 500)
        assert a == b
        assert any(d is not None for d in a), "hostile profile injected nothing"

    def test_different_seed_different_weather(self):
        profile = storage_fault_profile("hostile")
        a = _decisions(StorageFaultEngine(profile, seed=7), "records.jsonl", 500)
        b = _decisions(StorageFaultEngine(profile, seed=8), "records.jsonl", 500)
        assert a != b

    def test_basename_keying_reproduces_across_directories(self):
        profile = storage_fault_profile("hostile")
        a = _decisions(
            StorageFaultEngine(profile, seed=7), "/ci/ckpt/records.jsonl", 300
        )
        b = _decisions(
            StorageFaultEngine(profile, seed=7), "/tmp/pytest-0/records.jsonl", 300
        )
        assert a == b

    def test_enospc_fires_in_episodes(self):
        profile = StorageFaultProfile(name="t", enospc=0.05, enospc_run_length=4)
        engine = StorageFaultEngine(profile, seed=3)
        failed = [
            i
            for i in range(2000)
            if engine.write_fault("records.jsonl", 10) is not None
        ]
        assert failed, "no episode started in 2000 ops at 5%"
        runs, current = [], [failed[0]]
        for index in failed[1:]:
            if index == current[-1] + 1:
                current.append(index)
            else:
                runs.append(current)
                current = [index]
        runs.append(current)
        if runs[-1][-1] == 1999:
            runs.pop()  # the final episode may be cut off by the horizon
        assert runs and all(len(run) >= 4 for run in runs)

    @pytest.mark.parametrize(
        "profile, seed, key",
        [
            # The export temp of ``run --seed 1 --storage-faults heavy
            # --export s1m3.F``: rolls at writes 0 and 4 once chained
            # into eight straight ENOSPC failures, every retry attempt.
            ("heavy", 1, "s1m3.F.tmp"),
            ("light", 13, "records.jsonl"),
            ("heavy", 13, "manifest.json"),
            ("hostile", 13, "records.jsonl"),
            ("hostile", 13, "index.bin"),
        ],
    )
    def test_enospc_episodes_never_chain(self, profile, seed, key):
        preset = storage_fault_profile(profile)
        engine = StorageFaultEngine(preset, seed=seed)
        streak = longest = episodes = 0
        for _ in range(3000):
            fault = engine.write_fault(key, 10)
            if fault is not None and isinstance(fault[0], InjectedDiskFull):
                episodes += streak == 0
                streak += 1
                longest = max(longest, streak)
            else:
                streak = 0
        assert episodes and longest == preset.enospc_run_length
        assert preset.enospc_run_length < RETRY_ATTEMPTS

    def test_injected_errors_carry_real_errnos(self):
        assert InjectedDiskFull("x").errno == errno.ENOSPC
        assert ShortWrite("x", written=3).errno == errno.EIO
        assert FsyncFailure("x").errno == errno.EIO
        assert TornRename("x").errno == errno.EIO
        assert isinstance(InjectedDiskFull("x"), OSError)

    def test_off_profile_is_inert(self):
        engine = StorageFaultEngine(STORAGE_FAULT_PROFILES["off"], seed=1)
        assert not engine.active
        assert engine.write_fault("records.jsonl", 10) is None
        install_storage_faults(engine)
        from repro.storage.durable import storage_engine

        assert storage_engine() is None  # inactive engines are not installed

    def test_unknown_profile_is_an_error(self):
        with pytest.raises(ValueError, match="unknown storage fault profile"):
            storage_fault_profile("catastrophic")


class TestDurableFile:
    def test_short_write_rewinds_to_clean_tail(self, tmp_path):
        fake = FakeEngine()
        install_storage_faults(fake)
        durable = DurableFile(tmp_path / "records.jsonl", durability="none")
        durable.append(b"alpha\n")
        fake.write_script = [(ShortWrite("short", written=3), 3)]
        with pytest.raises(OSError):
            durable.append(b"bravo\n")
        # The partial "bra" was truncated away: retrying appends onto a
        # clean tail instead of producing "brabravo\n".
        assert (tmp_path / "records.jsonl").read_bytes() == b"alpha\n"
        durable.append(b"bravo\n")
        durable.close()
        assert (tmp_path / "records.jsonl").read_bytes() == b"alpha\nbravo\n"

    def test_checkpoint_append_rides_out_enospc_episode(self, tmp_path):
        fake = FakeEngine()
        fake.write_script = [
            (InjectedDiskFull("full"), 0),
            (InjectedDiskFull("full"), 0),
        ]
        install_storage_faults(fake)
        store = CheckpointStore(tmp_path)
        store.append_wire(encode_record_line('{"message_index": 0}').encode())
        store.close()
        scan = store.scan()
        assert scan.issues == [] and scan.indices == {0}
        assert scan.total_lines == 1  # retried, not duplicated

    def test_persistent_enospc_propagates_after_bounded_retry(self, tmp_path):
        fake = FakeEngine()
        # Exactly as many failures as the bounded retry has attempts.
        fake.write_script = [(InjectedDiskFull("full"), 0)] * RETRY_ATTEMPTS
        install_storage_faults(fake)
        store = CheckpointStore(tmp_path)
        wire = encode_record_line('{"message_index": 0}').encode()
        with pytest.raises(OSError) as info:
            store.append_wire(wire)
        assert info.value.errno == errno.ENOSPC
        # Space "returns": the same append lands exactly once, cleanly.
        store.append_wire(wire)
        store.close()
        scan = store.scan()
        assert scan.issues == [] and scan.total_lines == 1

    def test_fsync_failure_duplicates_are_tolerated(self, tmp_path):
        # durability=always: the line lands, then fsync fails, so the
        # bounded retry appends again — a duplicate, which load_records
        # resolves last-append-wins.  Never a lost or torn record.
        fake = FakeEngine()
        fake.fail_fsync = 1
        install_storage_faults(fake)
        store = CheckpointStore(tmp_path, durability="always")
        store.append_wire(encode_record_line('{"message_index": 4}').encode())
        store.close()
        scan = store.scan()
        assert scan.issues == []
        assert scan.total_lines == 2 and scan.indices == {4}

    def test_torn_rename_leaves_temp_and_old_content(self, tmp_path):
        target = tmp_path / "manifest.json"
        target.write_text("old", encoding="utf-8")
        fake = FakeEngine()
        fake.fail_replace = 1
        install_storage_faults(fake)
        with pytest.raises(TornRename):
            durable_write_text(target, "new")
        assert target.read_text(encoding="utf-8") == "old"
        temp = tmp_path / "manifest.json.tmp"
        assert temp.read_text(encoding="utf-8") == "new"
        # The bounded-retry path recovers once the fault clears.
        retrying(lambda: durable_write_text(target, "new"))
        assert target.read_text(encoding="utf-8") == "new"
        assert not temp.exists()

    def test_retrying_does_not_mask_permanent_errors(self):
        calls = []

        def operation():
            calls.append(1)
            raise PermissionError(errno.EACCES, "denied")

        with pytest.raises(PermissionError):
            retrying(operation)
        assert len(calls) == 1  # EACCES is not transient: no retry loop


class TestFsckDiagnostics:
    def _seed_records(self, directory) -> CheckpointStore:
        store = CheckpointStore(directory)
        for index in range(2):
            store.append_wire(
                encode_record_line(json.dumps({"message_index": index})).encode()
            )
        store.close()
        return store

    def test_corrupt_manifest_is_actionable(self, tmp_path, capsys):
        store = self._seed_records(tmp_path)
        (tmp_path / "manifest.json").write_text("{torn", encoding="utf-8")
        with pytest.raises(ManifestCorrupt, match="repro fsck"):
            store.read_manifest()
        assert main(["fsck", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "UNREADABLE" in out
        assert "hint:" in out and "--repair" in out

    def test_repair_survives_unreadable_manifest(
        self, tmp_path, baseline, capsys
    ):
        # Real records (salvage re-parses them), torn manifest.
        source = tmp_path / "src"
        source.mkdir()
        (source / "records.jsonl").write_bytes(
            (baseline["checkpoint"] / "records.jsonl").read_bytes()
        )
        (source / "manifest.json").write_text("{torn", encoding="utf-8")
        expected = len(baseline["records"])
        assert main(["fsck", str(source),
                     "--repair", str(tmp_path / "fixed")]) == 1
        out = capsys.readouterr().out
        assert f"Salvaged {expected} record(s)" in out
        assert "no readable source manifest" in out
        repaired = CheckpointStore(tmp_path / "fixed")
        assert len(repaired.scan().indices) == expected
        assert repaired.read_manifest() is None

    def test_corrupt_endpoint_is_reported(self, tmp_path, capsys):
        self._seed_records(tmp_path)
        (tmp_path / "endpoint.json").write_text("{torn", encoding="utf-8")
        assert main(["fsck", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "endpoint.json: UNREADABLE" in out
        assert "daemon rewrites it on startup" in out

    def test_valid_endpoint_is_shown(self, tmp_path, capsys):
        self._seed_records(tmp_path)
        (tmp_path / "endpoint.json").write_text(
            json.dumps({"host": "127.0.0.1", "port": 4100}), encoding="utf-8"
        )
        assert main(["fsck", str(tmp_path)]) == 0
        assert "daemon endpoint 127.0.0.1:4100" in capsys.readouterr().out

    def test_leftover_compact_temp_is_reported_not_fatal(self, tmp_path, capsys):
        self._seed_records(tmp_path)
        (tmp_path / "records.jsonl.compact.tmp").write_text("x", encoding="utf-8")
        assert main(["fsck", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "leftover temp file" in out and "safe to delete" in out


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """A fault-free checkpointed run: exported records + checkpoint dir."""
    base = tmp_path_factory.mktemp("baseline")
    path = base / "run.json"
    checkpoint = base / "ckpt"
    assert main(["run", "--scale", str(SCALE), "--seed", str(SEED),
                 "--checkpoint", str(checkpoint), "--export", str(path)]) == 0
    return {
        "records": json.loads(path.read_text())["records"],
        "checkpoint": checkpoint,
    }


@pytest.mark.parametrize("executor", ["inline", "process"])
class TestFaultyRunEndToEnd:
    def test_heavy_weather_run_is_lossless_and_identical(
        self, tmp_path, executor, baseline, capsys
    ):
        checkpoint = tmp_path / "ckpt"
        out = tmp_path / "out.json"
        assert main(["run", "--scale", str(SCALE), "--seed", str(SEED),
                     "--jobs", "1" if executor == "inline" else "2",
                     "--executor", executor,
                     "--checkpoint", str(checkpoint),
                     "--storage-faults", "heavy", "--storage-fault-seed", "7",
                     "--export", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["records"] == baseline["records"]

        # The checkpoint survived the weather: fsck-clean, every index
        # durable, and the manifest persists the fault settings so a
        # bare resume would replay the same schedule.
        install_storage_faults(None)
        store = CheckpointStore(checkpoint)
        scan = store.scan()
        assert scan.corruption == []
        assert scan.indices == {r["message_index"] for r in baseline["records"]}
        manifest = store.read_manifest()
        assert manifest.status == "complete"
        assert manifest.config.storage_faults == "heavy"
        assert manifest.config.storage_fault_seed == 7


class TestDefaultPathUnchanged:
    def test_off_manifest_has_no_storage_keys(self, baseline):
        manifest = json.loads(
            (baseline["checkpoint"] / "manifest.json").read_text()
        )
        assert "storage_faults" not in manifest
        assert "storage_fault_seed" not in manifest


class TestExportOutlastsHeavyWeather:
    def test_export_lands_through_a_heavy_enospc_episode(self, tmp_path, capsys):
        """``--export s1m3.F`` under heavy disk weather, seed 1: its temp
        file meets a full-disk episode on the first write.  The export
        still lands, equal to a fault-free disk's, with no temp left."""
        settings = ["run", "--scale", "0.05", "--seed", "1", "--faults", "hostile"]
        export = tmp_path / "s1m3.F"
        assert main([*settings, "--storage-faults", "heavy",
                     "--checkpoint", str(tmp_path / "D"), "--export", str(export)]) == 0
        install_storage_faults(None)
        clean = tmp_path / "clean.json"
        assert main([*settings, "--export", str(clean)]) == 0
        capsys.readouterr()
        assert export.read_bytes() == clean.read_bytes()
        assert not (tmp_path / "s1m3.F.tmp").exists()
        assert CheckpointStore(tmp_path / "D").read_manifest().status == "complete"
