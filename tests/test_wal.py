"""Unit tests for the write-ahead log."""

import pytest

from repro.errors import StorageError
from repro.storage.wal import InvocationRecord, WriteAheadLog


def make_record(node="n1", out=3):
    return InvocationRecord(
        node=node,
        op_name="Scale",
        input_versions=(1, 2),
        output_version=out,
        params={"factor": 2.0},
        lineage_modes=("Map",),
    )


class TestInvocationRecord:
    def test_json_roundtrip(self):
        rec = make_record()
        back = InvocationRecord.from_json(rec.to_json())
        assert back == rec

    def test_corrupt_json(self):
        with pytest.raises(StorageError):
            InvocationRecord.from_json("{not json")

    def test_missing_field(self):
        with pytest.raises(StorageError):
            InvocationRecord.from_json('{"node": "x"}')


class TestWriteAheadLog:
    def test_append_iterate(self):
        log = WriteAheadLog()
        log.append(make_record("a"))
        log.append(make_record("b"))
        assert [r.node for r in log] == ["a", "b"]
        assert len(log) == 2
        assert log.nbytes() > 0

    def test_file_backed_and_replay(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path=path)
        log.append(make_record("a", out=1))
        log.append(make_record("b", out=2))
        log.close()
        with WriteAheadLog.replay(path) as replayed:
            assert [r.node for r in replayed] == ["a", "b"]
            assert replayed.records()[1].output_version == 2

    def test_replay_skips_blank_lines(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_text(make_record().to_json() + "\n\n")
        with WriteAheadLog.replay(str(path)) as log:
            assert len(log) == 1

    def test_replay_corrupt_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_text("garbage\n")
        with pytest.raises(StorageError):
            WriteAheadLog.replay(str(path))

    def test_appends_after_replay_are_persisted(self, tmp_path):
        """Crash-recovery regression: a replayed log must keep appending to
        the file — it used to come back handle-less and drop new records."""
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path=path) as log:
            log.append(make_record("a", out=1))
        replayed = WriteAheadLog.replay(path)
        replayed.append(make_record("b", out=2))
        replayed.close()
        again = WriteAheadLog.replay(path, reopen=False)
        assert [r.node for r in again] == ["a", "b"]

    def test_replay_without_reopen_is_in_memory(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path=path) as log:
            log.append(make_record("a"))
        replayed = WriteAheadLog.replay(path, reopen=False)
        replayed.append(make_record("b"))
        assert len(WriteAheadLog.replay(path, reopen=False)) == 1

    def test_replay_repairs_torn_tail_before_appending(self, tmp_path):
        """A crash can tear the trailing newline off the last record; the
        reopened log must not merge the next append onto that line."""
        path = tmp_path / "wal.log"
        path.write_text(make_record("a").to_json())  # no trailing newline
        replayed = WriteAheadLog.replay(str(path))
        replayed.append(make_record("b"))
        replayed.close()
        again = WriteAheadLog.replay(str(path), reopen=False)
        assert [r.node for r in again] == ["a", "b"]

    def test_context_manager_closes_handle(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path=path) as log:
            log.append(make_record("a"))
            assert log._fh is not None
        assert log._fh is None
        with WriteAheadLog.replay(path) as replayed:
            assert replayed._fh is not None
        assert replayed._fh is None
