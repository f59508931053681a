"""Durability subsystem: WAL framing, checkpoints, crash recovery.

The crash-matrix test is the subsystem's acceptance gate: every
injected crash point (mid-append, pre-fsync with power loss, checkpoint
begin/renames) must recover to a state whose TPC-H query results are
byte-identical to the never-crashed reference, a torn final WAL record
must be dropped silently, and interior corruption must be refused with
an error naming the LSN.
"""

import builtins
import datetime
import json
import os
import re
import shutil
import struct
import zlib
from decimal import Decimal

import pytest

from repro.core.collection import Collection
from repro.durability import (
    DataDirError,
    DurableStore,
    MutationError,
    RecoveryError,
    WalCorruptionError,
    WriteAheadLog,
    recover,
    scan_wal,
)
from repro.durability import wal as wal_module
from repro.durability.wal import (
    ADD,
    BEGIN,
    COMMIT,
    FILE_HEADER_SIZE,
    INTERN,
    RECORD_HEADER_SIZE,
    encode_payload,
)
from repro.errors import InjectedFaultError
from repro.io import SnapshotError
from repro.memory.manager import MemoryManager

from tests.schemas import TNote, TOrder, TPerson


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "test.log")


@pytest.fixture
def data_dir(tmp_path):
    return str(tmp_path / "data")


def _fresh_store(data_dir, **kwargs):
    manager = MemoryManager()
    collections = {
        "persons": Collection(TPerson, manager=manager),
        "orders": Collection(TOrder, manager=manager),
        "notes": Collection(TNote, manager=manager),
        "_manager": manager,
    }
    store = DurableStore.create(data_dir, collections=collections, **kwargs)
    return store, collections, manager


def _tail_store(data_dir):
    """A closed data dir whose log holds batches, bare records and
    interned strings after an empty checkpoint; returns the log path."""
    store, colls, manager = _fresh_store(data_dir, fsync_policy="none")
    alice = colls["persons"].add(name="alice", age=30, balance=Decimal("1.50"))
    bob = colls["persons"].add(name="bob", age=40)
    with store.batch():
        colls["orders"].add(
            orderkey=1,
            owner=alice,
            total=Decimal("9.99"),
            placed=datetime.date(2024, 5, 17),
        )
        colls["notes"].add(text="hello world", stars=5)
        colls["notes"].add(text="hello world", stars=1)
    alice.age = 31
    with store.batch():
        colls["persons"].remove(bob)
        colls["orders"].add(orderkey=2, owner=None)
    path = store.wal.path
    store.close()
    manager.close()
    return path


def _raw_frame(lsn, kind, body):
    """One frame with a valid CRC around *body*, whatever *body* holds."""
    crc = zlib.crc32(struct.pack("<QB", lsn, kind) + body)
    return struct.pack("<IIQB", crc, len(body), lsn, kind) + body


def _append_raw(path, *frames):
    """Append ``(kind, body)`` frames with valid CRCs and continuing LSNs."""
    lsn = scan_wal(path).next_lsn
    with open(path, "ab") as fh:
        for i, (kind, body) in enumerate(frames):
            fh.write(_raw_frame(lsn + i, kind, body))


def _open_batch(path):
    """Leave a trailing BEGIN + ADD whose COMMIT never landed."""
    wal = WriteAheadLog.open(path, fsync_policy="none")
    wal.append(BEGIN, encode_payload({"n": 99}))
    wal.append(ADD, encode_payload({"c": "notes", "s": "TNote", "e": 7, "v": {"stars": 2}}))
    wal.close()


class _CountingDecoder:
    """Stands in for the log's payload decoder and counts its calls."""

    def __init__(self):
        self.texts = []

    def decode(self, text):
        self.texts.append(text)
        return json.JSONDecoder().decode(text)


def _state(collections):
    return {
        "persons": sorted(
            (h.name, h.age, h.balance) for h in collections["persons"]
        ),
        "orders": sorted(
            (h.orderkey, h.owner.name if h.owner else None, h.total)
            for h in collections["orders"]
        ),
        "notes": sorted((h.text, h.stars) for h in collections["notes"]),
    }


# ----------------------------------------------------------------------
# WAL framing
# ----------------------------------------------------------------------


class TestWal:
    def test_append_scan_roundtrip(self, wal_path):
        wal = WriteAheadLog.create(wal_path, fsync_policy="none")
        lsns = [wal.append(ADD, encode_payload({"c": "x", "e": i})) for i in range(5)]
        wal.close()
        scan = scan_wal(wal_path)
        assert lsns == [1, 2, 3, 4, 5]
        assert [r.lsn for r in scan.records] == lsns
        assert [r.payload["e"] for r in scan.records] == list(range(5))
        assert scan.torn_bytes == 0
        assert scan.committed_count == 5

    def test_torn_final_record_dropped(self, wal_path):
        wal = WriteAheadLog.create(wal_path, fsync_policy="none")
        for i in range(3):
            wal.append(ADD, encode_payload({"c": "x", "e": i}))
        wal.close()
        size = os.path.getsize(wal_path)
        with open(wal_path, "r+b") as fh:
            fh.truncate(size - 4)  # cut into the last record's payload
        scan = scan_wal(wal_path)
        assert [r.lsn for r in scan.records] == [1, 2]
        assert scan.torn_bytes > 0

    def test_torn_header_dropped(self, wal_path):
        wal = WriteAheadLog.create(wal_path, fsync_policy="none")
        wal.append(ADD, encode_payload({"c": "x", "e": 0}))
        end = wal.size
        wal.close()
        with open(wal_path, "ab") as fh:
            fh.write(b"\x01\x02\x03")  # 3 bytes of a never-finished header
        scan = scan_wal(wal_path)
        assert scan.committed_count == 1
        assert scan.good_offset == end
        assert scan.torn_bytes == 3

    def test_interior_corruption_names_lsn(self, wal_path):
        wal = WriteAheadLog.create(wal_path, fsync_policy="none")
        offsets = {}
        for i in range(4):
            lsn = wal.append(ADD, encode_payload({"c": "x", "e": i}))
            offsets[lsn] = wal.size
        wal.close()
        # Flip one payload byte of LSN 2 (an interior record).
        with open(wal_path, "r+b") as fh:
            fh.seek(offsets[1] + RECORD_HEADER_SIZE + 2)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(WalCorruptionError) as err:
            scan_wal(wal_path)
        assert err.value.lsn == 2
        assert "LSN 2" in str(err.value)
        assert isinstance(err.value, RecoveryError)

    def test_trailing_open_batch_excluded_and_truncated(self, wal_path):
        wal = WriteAheadLog.create(wal_path, fsync_policy="none")
        with wal.batch():
            wal.append(ADD, encode_payload({"e": 0}))
        # A batch whose COMMIT never lands: append BEGIN + one record by
        # hand, then "crash" without the COMMIT.
        wal.append(BEGIN, encode_payload({"n": 99}))
        wal.append(ADD, encode_payload({"e": 1}))
        wal.close()
        scan = scan_wal(wal_path)
        assert scan.open_batch_records == 2
        kinds = [r.kind for r in scan.committed_records()]
        assert kinds == [BEGIN, ADD, COMMIT]

        reopened = WriteAheadLog.open(wal_path, fsync_policy="none")
        assert reopened.next_lsn == 4  # LSNs 4-5 were dropped
        lsn = reopened.append(ADD, encode_payload({"e": 2}))
        assert lsn == 4
        reopened.close()
        again = scan_wal(wal_path)
        assert [r.lsn for r in again.records] == [1, 2, 3, 4]

    def test_not_a_wal_rejected(self, tmp_path):
        path = str(tmp_path / "junk.log")
        with open(path, "wb") as fh:
            fh.write(b"definitely not a log")
        with pytest.raises(WalCorruptionError):
            scan_wal(path)

    def test_batch_is_single_fsync(self, wal_path):
        wal = WriteAheadLog.create(wal_path, fsync_policy="commit")
        with wal.batch():
            for i in range(10):
                wal.append(ADD, encode_payload({"e": i}))
        assert wal.fsyncs == 1
        wal.close()


# ----------------------------------------------------------------------
# A restart reads its log once
# ----------------------------------------------------------------------


def _damage(path, case):
    if case == "torn-record":
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 4)  # into the last payload
    elif case == "torn-header":
        with open(path, "ab") as fh:
            fh.write(b"\x01\x02\x03")  # 3 bytes of a never-finished header
    elif case == "open-batch":
        _open_batch(path)


def _committed_texts(path):
    """The committed payloads of a segment, as the decoder receives them."""
    scan = scan_wal(path)
    return [
        scan.data[offset + RECORD_HEADER_SIZE : end].decode("utf-8")
        for __, __, offset, end in scan.frames[: scan.committed_count]
    ]


class TestSingleRead:
    def test_open_reads_the_segment_once_and_decodes_each_payload_once(
        self, data_dir, monkeypatch
    ):
        path = _tail_store(data_dir)
        _open_batch(path)
        committed = _committed_texts(path)
        modes = []
        real_open = builtins.open

        def counting_open(file, mode="r", *args, **kwargs):
            if file == path:
                modes.append(mode)
            return real_open(file, mode, *args, **kwargs)

        decoder = _CountingDecoder()
        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(wal_module, "_DECODER", decoder)
        store = DurableStore.open(data_dir)
        monkeypatch.undo()
        assert modes == ["rb", "r+b"]  # one read; the appender only writes
        assert decoder.texts == committed  # each once, the open batch never
        assert store.report.dropped_open_batch == 2
        assert store.report.records_scanned == len(committed) + 2
        store.close()

    @pytest.mark.parametrize(
        "case", ["clean", "torn-record", "torn-header", "open-batch"]
    )
    def test_resumes_where_a_reopen_would(self, data_dir, tmp_path, case):
        path = _tail_store(data_dir)
        _damage(path, case)
        damaged_size = os.path.getsize(path)
        reference_dir = str(tmp_path / "reference")
        shutil.copytree(data_dir, reference_dir)
        reference = WriteAheadLog.open(
            os.path.join(reference_dir, os.path.basename(path)),
            fsync_policy="none",
        )
        store = DurableStore.open(data_dir, fsync_policy="none")
        resumed = store.wal
        assert resumed.next_lsn == reference.next_lsn
        assert resumed.committed_lsn == reference.committed_lsn
        assert resumed.start_lsn == reference.start_lsn
        assert resumed.size == reference.size == os.path.getsize(path)
        assert (resumed.size == damaged_size) == (case == "clean")
        probe = encode_payload({"i": 999, "t": "probe"})
        assert resumed.append(INTERN, probe) == reference.append(INTERN, probe)
        store.close()
        reference.close()
        with open(path, "rb") as a, open(reference.path, "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize(
        "body",
        [b'{"c": "persons", "e"', b"\xff\xfe{}", b"{} {}", b""],
        ids=["truncated-json", "not-utf8", "two-documents", "empty"],
    )
    def test_undecodable_committed_payload_names_its_lsn(self, data_dir, body):
        path = _tail_store(data_dir)
        lsn = scan_wal(path).next_lsn
        # CRC-valid, inside the committed prefix, with a record behind it.
        _append_raw(path, (INTERN, body), (INTERN, b'{"i":50,"t":"after"}'))
        with pytest.raises(WalCorruptionError) as err:
            recover(data_dir)
        assert err.value.lsn == lsn
        assert f"LSN {lsn}" in str(err.value)

    def test_payloads_never_merge(self, data_dir):
        """Invalid apart, valid JSON joined: a decoder that batched the
        payloads of two records could take them for two documents."""
        halves = [b'{"a":"x', b'y"},{"b":1}']
        assert len(json.loads(b"[" + b",".join(halves) + b"]")) == 2
        path = _tail_store(data_dir)
        lsn = scan_wal(path).next_lsn
        _append_raw(path, *((INTERN, half) for half in halves))
        with pytest.raises(WalCorruptionError) as err:
            DurableStore.open(data_dir)
        assert err.value.lsn == lsn

    def test_open_batch_dropped_after_framing_alone(self, data_dir, monkeypatch):
        """Records of a trailing open batch are never decoded, so one
        that would not decode is dropped with its batch."""
        path = _tail_store(data_dir)
        committed = _committed_texts(path)
        _append_raw(path, (BEGIN, b'{"n":99}'), (ADD, b"not json"), (ADD, b"\xff"))
        decoder = _CountingDecoder()
        monkeypatch.setattr(wal_module, "_DECODER", decoder)
        store = DurableStore.open(data_dir)
        assert decoder.texts == committed
        assert store.report.dropped_open_batch == 3
        store.close()
        assert _committed_texts(path) == committed
        assert scan_wal(path).open_batch_records == 0  # truncated away

    @pytest.mark.parametrize(
        "point,power_loss", [("wal.append.mid", False), ("wal.fsync", True)]
    )
    def test_crash_residue_is_classified_by_framing_alone(
        self, data_dir, monkeypatch, point, power_loss
    ):
        from repro import sanitizer

        store, colls, manager = _fresh_store(data_dir, fsync_policy="commit")
        colls["persons"].add(name="before", age=1)
        path = store.wal.path
        plan = sanitizer.FaultPlan().crash_at(
            point, after=3, power_loss=power_loss
        )
        with sanitizer.enabled(faults=plan):
            with pytest.raises(InjectedFaultError):
                for i in range(10):
                    with store.batch():
                        colls["persons"].add(name=f"p{i}", age=i)
                        colls["notes"].add(text=f"n{i}", stars=i)
        manager.close()
        scan = scan_wal(path)
        if point == "wal.append.mid":
            assert scan.torn_bytes > 0 and scan.open_batch_records > 0
        committed = _committed_texts(path)
        decoder = _CountingDecoder()
        monkeypatch.setattr(wal_module, "_DECODER", decoder)
        loaded, report = recover(data_dir)
        assert decoder.texts == committed
        assert report.records_scanned == len(scan.frames)
        names = sorted(h.name for h in loaded["persons"])
        assert names == sorted(
            ["before"] + [f"p{i}" for i in range(len(names) - 1)]
        )
        loaded["_manager"].close()


# ----------------------------------------------------------------------
# log-dump / recover output
# ----------------------------------------------------------------------

#: ``repro log-dump`` of :func:`_cli_fixture`'s data dir, recorded: how
#: the reader walks and decodes the log must not change what it lists.
#: ``<dir>`` stands for the data dir.
LOG_DUMP = """\
<dir>/wal-0000000000000001.log: segment starts at LSN 1
         1  ADD     {"c": "persons", "e": 0, "s": "TPerson", "v": {"age": 30, "balance": {"$d": "1.50"}, "name": "alice"}}
         2  ADD     {"c": "persons", "e": 1, "s": "TPerson", "v": {"age": 40, "name": "bob"}}
         3  BEGIN   {"n": 1}
         4  ADD     {"c": "orders", "e": 2, "s": "TOrder", "v": {"orderkey": 1, "owner": {"$r": 0}, "placed": {"$t": "2024-05-17"}, "total": {"$d": "9.99"}}}
         5  INTERN  {"i": 1, "t": "hello world"}
         6  ADD     {"c": "notes", "e": 3, "s": "TNote", "v": {"stars": 5, "text": {"$s": 1}}}
         7  ADD     {"c": "notes", "e": 4, "s": "TNote", "v": {"stars": 1, "text": {"$s": 1}}}
         8  COMMIT  {"n": 1}
         9  UPDATE  {"c": "persons", "e": 0, "f": "age", "v": 31}
        10  BEGIN   {"n": 2}
        11  REMOVE  {"c": "persons", "e": 1}
        12  ADD     {"c": "orders", "e": 5, "s": "TOrder", "v": {"orderkey": 2, "owner": null}}
        13  COMMIT  {"n": 2}
        14  BEGIN   {"n": 99}  [uncommitted]
        15  ADD     {"c": "notes", "e": 7, "s": "TNote", "v": {"stars": 2}}  [uncommitted]
15 records (13 committed), 3 torn tail bytes
"""

#: ``repro recover`` of the same dir: the replay counts and the row
#: listing (the summary's timings are left out).
RECOVER = """\
replayed 8 of 15 log records (1 interned strings, 2 dropped from an open batch, 3 torn tail bytes)
  notes                2 rows
  orders               2 rows
  persons              1 rows
"""


def _cli_fixture(data_dir):
    """A data dir whose log ends in an open batch and a torn header."""
    path = _tail_store(data_dir)
    _open_batch(path)
    _damage(path, "torn-header")


def _run_cli(capsys, *argv):
    from repro.cli import main

    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestLogCommands:
    def test_log_dump_lists_every_structurally_valid_record(
        self, data_dir, capsys
    ):
        _cli_fixture(data_dir)
        out = _run_cli(capsys, "log-dump", data_dir)
        assert out.replace(data_dir, "<dir>") == LOG_DUMP

    def test_recover_counts_and_rows(self, data_dir, capsys):
        _cli_fixture(data_dir)
        out = _run_cli(capsys, "recover", data_dir)
        summary, *rows = out.splitlines()
        counts = re.search(r"replayed .*torn tail bytes\)", summary).group(0)
        assert "\n".join([counts, *rows]) + "\n" == RECOVER
        assert re.search(
            r"loaded in [\d.]+ ms, log read in [\d.]+ ms, replayed .* "
            r"in [\d.]+ ms$",
            summary,
        )


# ----------------------------------------------------------------------
# Store: log + replay equality
# ----------------------------------------------------------------------


class TestStoreRecovery:
    def test_mutations_replay_exactly(self, data_dir):
        store, colls, manager = _fresh_store(data_dir)
        p1 = colls["persons"].add(name="alice", age=30, balance=Decimal("1.50"))
        p2 = colls["persons"].add(name="bob", age=40)
        colls["orders"].add(
            orderkey=1,
            owner=p1,
            total=Decimal("9.99"),
            placed=datetime.date(2024, 5, 17),
        )
        colls["orders"].add(orderkey=2, owner=None)
        colls["notes"].add(text="hello world", stars=5)
        colls["notes"].add(text="hello world", stars=1)  # sid reuse
        p1.age = 31
        colls["persons"].remove(p2)
        expected = _state(colls)
        store.close()
        manager.close()

        loaded, report = recover(data_dir)
        assert _state(loaded) == expected
        assert report.replayed > 0
        assert report.interned == 1  # "hello world" interned once
        loaded["_manager"].close()

    def test_open_resumes_and_checkpoint_truncates(self, data_dir):
        store, colls, manager = _fresh_store(data_dir)
        colls["persons"].add(name="a", age=1)
        store.close()
        manager.close()

        s2 = DurableStore.open(data_dir)
        s2.collections["persons"].add(name="b", age=2)
        manifest = s2.checkpoint()
        assert manifest["rows"] == 2
        # The old segment is swept; the new one starts after the cut.
        wal_files = [
            f for f in os.listdir(data_dir) if f.startswith("wal-")
        ]
        assert wal_files == [os.path.basename(s2.wal.path)]
        s2.collections["persons"].add(name="c", age=3)
        s2.close()

        loaded, report = recover(data_dir)
        assert sorted(h.name for h in loaded["persons"]) == ["a", "b", "c"]
        assert report.checkpoint_rows == 2
        loaded["_manager"].close()

    def test_remove_where_is_logged(self, data_dir):
        store, colls, manager = _fresh_store(data_dir)
        for i in range(10):
            colls["persons"].add(name=f"p{i}", age=i)
        removed = colls["persons"].remove_where(TPerson.age < 5)
        assert removed == 5
        expected = _state(colls)
        store.close()
        manager.close()
        loaded, __ = recover(data_dir)
        assert _state(loaded) == expected
        loaded["_manager"].close()

    def test_entry_ids_survive_restart_and_manifest_is_small(self, data_dir):
        """Block-image checkpoints keep entry ids: a client-held id still
        names its row after a restart, log records need no translation
        table, and the manifest carries no per-row state."""
        import json

        store, colls, manager = _fresh_store(data_dir)
        people = [colls["persons"].add(name=f"p{i}", age=i) for i in range(50)]
        store.checkpoint()
        held = people[17].ref.entry
        colls["persons"].remove(people[3])       # tail: a remove,
        people[20].age = 99                      # an update,
        late = colls["persons"].add(name="late", age=7)  # and an add
        colls["orders"].add(orderkey=1, owner=late)
        expected = _state(colls)
        store.close()
        manager.close()

        with open(os.path.join(data_dir, "MANIFEST")) as fh:
            manifest = json.load(fh)
        assert "entries" not in manifest
        assert os.path.getsize(os.path.join(data_dir, "MANIFEST")) < 1024

        reopened = DurableStore.open(data_dir)
        assert _state(reopened.collections) == expected
        assert reopened.report.replayed == 4
        reopened.apply(
            [
                {
                    "op": "update",
                    "collection": "persons",
                    "entry": held,
                    "values": {"age": 1717},
                }
            ]
        )
        assert [h.name for h in reopened.collections["persons"] if h.age == 1717] == [
            "p17"
        ]
        with pytest.raises(MutationError):  # removed before the restart
            reopened.apply(
                [{"op": "remove", "collection": "persons", "entry": people[3].ref.entry}]
            )
        reopened.close()

    @pytest.mark.parametrize("shape", ["columnar", "blocksize"])
    def test_tail_replays_onto_a_converted_checkpoint(self, data_dir, shape):
        """Recovering into another layout, or onto a manager with another
        block size, copies the checkpoint row by row, so rows take other
        entry ids; the log tail, written against the stored ids, must
        still find them."""
        store, colls, manager = _fresh_store(data_dir)
        people = [colls["persons"].add(name=f"p{i}", age=i) for i in range(30)]
        for h in people[:10]:
            colls["persons"].remove(h)  # stored ids 10.. become copies 0..
        store.checkpoint()
        people[17].age = 1717
        colls["persons"].remove(people[25])
        colls["orders"].add(orderkey=1, owner=people[12])
        colls["orders"].add(orderkey=2, owner=colls["persons"].add(name="late", age=7))
        expected = _state(colls)
        store.close(checkpoint=False)
        manager.close()

        if shape == "columnar":
            recovered, report = recover(data_dir, columnar=True)
        else:
            recovered, report = recover(data_dir, manager=MemoryManager(block_shift=12))
            assert recovered["_manager"].space.block_shift == 12
        assert report.replayed == 5
        assert _state(recovered) == expected
        recovered["_manager"].close()

    def test_pre_image_checkpoint_with_log_tail_refused(self, data_dir):
        """A data directory of the row-snapshot era is refused at load,
        naming its checkpoint's format, by recovery and by the store."""
        store, colls, manager = _fresh_store(data_dir)
        colls["persons"].add(name="a", age=1)
        store.checkpoint()
        checkpoint = store.datadir.checkpoint_path(store.cut_lsn)
        store.close()
        manager.close()
        with open(checkpoint, "r+b") as fh:
            fh.write(b"SMCSNAP1")
        for open_dir in (recover, DurableStore.open):
            with pytest.raises(SnapshotError, match="SMCSNAP1 row snapshots"):
                open_dir(data_dir)

    def test_heap_address_manifest_refused(self, data_dir):
        """A MANIFEST recording plain string-heap addresses
        (``string_dict: false``) is refused by recovery and by the store,
        naming the string encoding; ``true`` recovers as written."""
        store, colls, manager = _fresh_store(data_dir)
        colls["notes"].add(text="kept", stars=1)
        store.close()
        manager.close()
        path = os.path.join(data_dir, "MANIFEST")
        with open(path) as fh:
            manifest = json.load(fh)
        assert manifest["string_dict"] is True
        with open(path, "w") as fh:
            json.dump(dict(manifest, string_dict=False), fh)
        for open_dir in (recover, DurableStore.open):
            with pytest.raises(RecoveryError, match="string encoding"):
                open_dir(data_dir)
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        recovered, __ = recover(data_dir)
        assert [h.text for h in recovered["notes"]] == ["kept"]
        recovered["_manager"].close()

    def test_uninitialized_dir_refused(self, tmp_path):
        with pytest.raises(RecoveryError):
            recover(str(tmp_path / "nothing"))

    def test_double_create_refused(self, data_dir):
        store, __, manager = _fresh_store(data_dir)
        store.close()
        manager.close()
        with pytest.raises(DataDirError):
            DurableStore.create(data_dir)

    def test_interior_corruption_refused_at_recovery(self, data_dir):
        store, colls, manager = _fresh_store(data_dir, fsync_policy="none")
        for i in range(5):
            colls["persons"].add(name=f"p{i}", age=i)
        wal_path = store.wal.path
        store.close()
        manager.close()
        with open(wal_path, "r+b") as fh:
            fh.seek(FILE_HEADER_SIZE + RECORD_HEADER_SIZE + 4)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(RecoveryError) as err:
            recover(data_dir)
        assert "LSN 1" in str(err.value)


# ----------------------------------------------------------------------
# Mutation batches (the service-facing op API)
# ----------------------------------------------------------------------


class TestApply:
    def test_apply_batch_roundtrip(self, data_dir):
        store, colls, manager = _fresh_store(data_dir)
        results = store.apply(
            [
                {
                    "op": "add",
                    "collection": "persons",
                    "values": {"name": "ann", "age": 33},
                },
            ]
        )
        entry = results[0]["entry"]
        store.apply(
            [
                {
                    "op": "add",
                    "collection": "orders",
                    "values": {
                        "orderkey": 7,
                        "owner": {"$r": entry},
                        "total": {"$d": "12.34"},
                    },
                },
                {
                    "op": "update",
                    "collection": "persons",
                    "entry": entry,
                    "values": {"age": 34},
                },
            ]
        )
        assert [h.age for h in colls["persons"]] == [34]
        (order,) = colls["orders"]
        assert order.owner.name == "ann"
        assert order.total == Decimal("12.34")
        expected = _state(colls)
        store.close()
        manager.close()
        loaded, __ = recover(data_dir)
        assert _state(loaded) == expected
        loaded["_manager"].close()

    def test_apply_rejects_garbage(self, data_dir):
        store, colls, manager = _fresh_store(data_dir)
        with pytest.raises(MutationError):
            store.apply([])
        with pytest.raises(MutationError):
            store.apply([{"op": "add", "collection": "nope", "values": {}}])
        with pytest.raises(MutationError):
            store.apply(
                [
                    {
                        "op": "add",
                        "collection": "persons",
                        "values": {"bogus": 1},
                    }
                ]
            )
        with pytest.raises(MutationError):
            store.apply(
                [{"op": "remove", "collection": "persons", "entry": -3}]
            )
        with pytest.raises(MutationError):
            store.apply(
                [{"op": "frobnicate", "collection": "persons"}]
            )
        store.close()
        manager.close()


# ----------------------------------------------------------------------
# Crash matrix (acceptance gate)
# ----------------------------------------------------------------------

#: (fault point, power loss, firings let pass, composed).  A row without
#: a point injects no fault: the store checkpoints mid-run and closes
#: cleanly.  A composed row runs the store, and recovers it, on the
#: served shape that combines every mode: shared-memory blocks under a
#: one-byte hot budget, so each write faults a cold block.
CRASH_POINTS = [
    (None, False, 0, False),
    ("wal.append.mid", False, 30, False),
    ("wal.append.mid", False, 0, False),
    ("wal.fsync", True, 1, False),
    ("checkpoint.begin", False, 0, False),
    ("checkpoint.snapshot_rename", False, 0, False),
    ("checkpoint.manifest_rename", False, 0, False),
    (None, False, 0, True),
    ("wal.append.mid", False, 30, True),
]

CRASH_QUERIES = ("q1", "q6", "q3", "q12", "q14")


class TestCrashMatrix:
    @pytest.mark.parametrize(
        "point,power_loss,after,composed",
        CRASH_POINTS,
        ids=[
            (f"{p}-pl{int(pl)}-a{a}" if p else "no-fault")
            + ("-composed" if composed else "")
            for p, pl, a, composed in CRASH_POINTS
        ],
    )
    def test_recovery_is_byte_exact(
        self, tpch_tiny, tmp_path, point, power_loss, after, composed
    ):
        """Crash anywhere; recovered TPC-H answers match the reference.

        Without a crash, recovery also returns every scratch row as the
        live store left it.
        """
        from repro import sanitizer
        from repro.tpch.loader import load_smc
        from repro.tpch.queries import DEFAULT_PARAMS, EXTRA_QUERIES, QUERIES

        builders = {**QUERIES, **EXTRA_QUERIES}

        def run_mix(collections):
            plain = {
                k: v for k, v in collections.items() if not k.startswith("_")
            }
            return {
                name: sorted(
                    map(
                        repr,
                        builders[name](plain)
                        .run(engine="compiled", params=DEFAULT_PARAMS)
                        .rows,
                    )
                )
                for name in CRASH_QUERIES
            }

        data_dir = str(tmp_path / "dd")
        shape = dict(shm=True, memory_budget=1) if composed else {}
        collections = load_smc(
            tpch_tiny,
            manager=MemoryManager(block_shift=16, **shape) if shape else None,
        )
        scratch = collections["scratch"] = Collection(
            TNote, manager=collections["_manager"], name="scratch"
        )
        store = DurableStore.create(
            data_dir, collections=collections, fsync_policy="commit"
        )
        reference = run_mix(collections)

        def write(first, batches):
            for i in range(first, first + batches):
                with store.batch():
                    for j in range(5):
                        scratch.add(text=f"note-{i}-{j}", stars=j)

        if point is None:
            write(0, 30)
            store.checkpoint()
            write(30, 30)
            with store.batch():
                for k, handle in enumerate(list(scratch)):
                    if k % 7 == 0:
                        scratch.remove(handle)
                    elif k % 5 == 0:
                        handle.stars = 4
            live = sorted((h.text, h.stars) for h in scratch)
            store.close()
        else:
            plan = sanitizer.FaultPlan().crash_at(
                point, after=after, power_loss=power_loss
            )
            with sanitizer.enabled(faults=plan):
                with pytest.raises(InjectedFaultError):
                    write(0, 60)
                    store.checkpoint()
            assert plan.fired.get(point) == 1
        # Recover from what hit the disk; a crashed store was never closed.
        collections["_manager"].close()

        loaded, report = recover(data_dir, **shape)
        if composed:
            assert loaded["_manager"].pager.residency_counts()["cold"] > 0
        assert run_mix(loaded) == reference
        if point is None:
            assert sorted((h.text, h.stars) for h in loaded["scratch"]) == live
        else:
            # The recovered scratch rows are a committed prefix of the run.
            texts = sorted(h.text for h in loaded["scratch"])
            assert len(texts) % 5 == 0
            assert texts == sorted(
                f"note-{i}-{j}"
                for i in range(len(texts) // 5)
                for j in range(5)
            )
        loaded["_manager"].close()

    def test_torn_append_reopen_appends_cleanly(self, data_dir):
        """After a mid-append crash, open() truncates and resumes."""
        from repro import sanitizer

        store, colls, manager = _fresh_store(data_dir, fsync_policy="commit")
        colls["persons"].add(name="before", age=1)
        plan = sanitizer.FaultPlan().crash_at("wal.append.mid")
        with sanitizer.enabled(faults=plan):
            with pytest.raises(InjectedFaultError):
                colls["persons"].add(name="torn", age=2)
        manager.close()

        s2 = DurableStore.open(data_dir)
        assert sorted(h.name for h in s2.collections["persons"]) == ["before"]
        s2.collections["persons"].add(name="after", age=3)
        s2.close()
        loaded, __ = recover(data_dir)
        assert sorted(h.name for h in loaded["persons"]) == [
            "after",
            "before",
        ]
        loaded["_manager"].close()


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------


class TestServicePersistence:
    def test_mutate_op_and_restart(self, data_dir):
        from repro.service.server import QueryService

        store, colls, manager = _fresh_store(data_dir)
        service = QueryService(colls, manager, store=store)
        reply = service.handle(
            {
                "op": "mutate",
                "ops": [
                    {
                        "op": "add",
                        "collection": "persons",
                        "values": {"name": "srv", "age": 9},
                    }
                ],
            }
        )
        assert reply["ok"], reply
        entry = reply["results"][0]["entry"]
        reply = service.handle(
            {
                "op": "mutate",
                "ops": [
                    {
                        "op": "update",
                        "collection": "persons",
                        "entry": entry,
                        "values": {"age": 10},
                    }
                ],
            }
        )
        assert reply["ok"], reply
        bad = service.handle(
            {
                "op": "mutate",
                "ops": [{"op": "add", "collection": "nope", "values": {}}],
            }
        )
        assert not bad["ok"] and bad["error"] == "BAD_REQUEST"
        metrics = service.metrics.expose()
        assert "smc_wal_bytes_total" in metrics
        assert "smc_checkpoint_duration_seconds" in metrics
        assert "smc_checkpoint_bytes" in metrics
        assert "smc_snapshot_load_seconds" in metrics
        assert "smc_recovery_replayed_total" in metrics
        service.close()  # checkpoints + closes the store
        manager.close()

        reopened = DurableStore.open(data_dir)
        assert [
            (h.name, h.age) for h in reopened.collections["persons"]
        ] == [("srv", 10)]
        assert reopened.report.replayed == 0  # close() checkpointed
        reopened.close()

    def test_mutate_without_store_is_bad_request(self, manager):
        from repro.service.server import QueryService

        colls = {"persons": Collection(TPerson, manager=manager)}
        service = QueryService(colls, manager)
        reply = service.handle({"op": "mutate", "ops": []})
        assert not reply["ok"] and reply["error"] == "BAD_REQUEST"
        service.close()
