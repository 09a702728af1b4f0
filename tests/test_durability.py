"""Unit tests for the crash-safe storage layer.

Covers the WAL record codec (framing, torn/corrupt truncation), the
checkpoint codec (self-validating header, atomic publication,
corrupt-fallback), the op codec, and the :class:`DurableStore` facade:
reopen equality, epoch persistence, incremental-saturation recovery,
retention pruning, and the satellite guarantee that a recovered
store's statistics equal a fresh ``from_graph`` build.
"""

from __future__ import annotations

import pytest

from repro.cache import QueryCache
from repro.core import QueryAnswerer, Strategy
from repro.datasets import books_example_query, books_graph, books_schema
from repro.durability import (
    CheckpointCorrupt,
    DurableStore,
    FileSystem,
    HEADER_SIZE,
    MAX_PAYLOAD,
    OP_CONSTRAINT_ADD,
    OP_CONSTRAINT_REMOVE,
    OP_DELETE,
    OP_INSERT,
    WALFormatError,
    WriteAheadLog,
    decode_checkpoint,
    decode_op,
    decode_records,
    encode_checkpoint,
    encode_op,
    encode_record,
    recover,
    verify_recovery,
    wal_path,
)
from repro.rdf import Literal, Namespace, RDF_TYPE, Triple
from repro.schema import Constraint
from repro.storage import TripleStore

EX = Namespace("http://example.org/")


def sample_triples(count=6):
    return [Triple(EX.term("s%d" % i), RDF_TYPE, EX.C) for i in range(count)]


# ---------------------------------------------------------------------------
# WAL record codec


class TestRecordCodec:
    def test_round_trip(self):
        payloads = [b"", b"x", b"hello world", bytes(range(256))]
        data = b"".join(encode_record(p) for p in payloads)
        result = decode_records(data)
        assert result.records == payloads
        assert result.valid_length == len(data)
        assert not result.truncated

    def test_torn_tail_is_truncated_not_raised(self):
        data = encode_record(b"ok") + encode_record(b"torn")[:-1]
        result = decode_records(data)
        assert result.records == [b"ok"]
        assert result.truncated and result.reason == "torn record"
        assert result.valid_length == HEADER_SIZE + 2

    def test_torn_header(self):
        data = encode_record(b"ok") + b"WR\x01"  # header cut short
        result = decode_records(data)
        assert result.records == [b"ok"]
        assert result.reason == "torn record"

    def test_bad_magic_is_corrupt(self):
        data = encode_record(b"ok") + b"XX" + b"\x00" * 20
        result = decode_records(data)
        assert result.records == [b"ok"]
        assert result.reason == "corrupt record"

    def test_flipped_payload_bit_is_corrupt(self):
        record = bytearray(encode_record(b"payload"))
        record[-1] ^= 0x40
        result = decode_records(bytes(record))
        assert result.records == []
        assert result.reason == "corrupt record"
        assert result.valid_length == 0

    def test_insane_length_is_corrupt(self):
        import struct

        frame = struct.pack("<2sII", b"WR", MAX_PAYLOAD + 1, 0)
        result = decode_records(frame + b"\x00" * 64)
        assert result.reason == "corrupt record"

    def test_oversize_payload_rejected_on_encode(self):
        with pytest.raises(ValueError):
            encode_record(b"\x00" * (MAX_PAYLOAD + 1))


class TestWriteAheadLog:
    def test_append_read_round_trip(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "wal.log"), sync="never")
        for payload in (b"one", b"two", b"three"):
            log.append(payload)
        reread = WriteAheadLog(str(tmp_path / "wal.log"), sync="never")
        assert reread.size == log.size
        assert reread.read_from().records == [b"one", b"two", b"three"]

    def test_read_from_offset(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "wal.log"), sync="never")
        first_end = log.append(b"first")
        log.append(b"second")
        assert log.read_from(first_end).records == [b"second"]

    def test_missing_file_reads_empty(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "absent.log"), sync="never")
        result = log.read_from()
        assert result.records == [] and not result.truncated

    def test_truncate_to(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "wal.log"), sync="never")
        keep = log.append(b"keep")
        log.append(b"drop")
        log.truncate_to(keep)
        assert WriteAheadLog(str(tmp_path / "wal.log")).read_from().records == [
            b"keep"
        ]

    def test_bad_sync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(str(tmp_path / "wal.log"), sync="sometimes")


# ---------------------------------------------------------------------------
# Op codec


class TestOpCodec:
    def test_round_trip_all_ops(self):
        triple = Triple(EX.a, EX.p, Literal('tricky "quote" \\ \n value'))
        schema_triple = Constraint.subclass(EX.C, EX.D).to_triple()
        for op, subject in [
            (OP_INSERT, triple),
            (OP_DELETE, triple),
            (OP_CONSTRAINT_ADD, schema_triple),
            (OP_CONSTRAINT_REMOVE, schema_triple),
        ]:
            assert decode_op(encode_op(op, subject)) == (op, subject)

    def test_unknown_tag_rejected(self):
        with pytest.raises(WALFormatError):
            decode_op(b"Z+ <http://a> <http://b> <http://c> .")

    def test_non_utf8_rejected(self):
        with pytest.raises(WALFormatError):
            decode_op(b"T+ \xff\xfe")

    def test_bad_triple_rejected(self):
        with pytest.raises(WALFormatError):
            decode_op(b"T+ not a triple at all")

    def test_unknown_op_rejected_on_encode(self):
        with pytest.raises(ValueError):
            encode_op("X?", Triple(EX.a, EX.p, EX.b))


# ---------------------------------------------------------------------------
# Checkpoint codec


class TestCheckpointCodec:
    BODY = {"format": 1, "sequence": 1, "wal_segment": 1, "wal_offset": 0}

    def test_round_trip(self):
        assert decode_checkpoint(encode_checkpoint(self.BODY)) == self.BODY

    def test_missing_header(self):
        with pytest.raises(CheckpointCorrupt):
            decode_checkpoint(b"{}")

    def test_header_without_newline(self):
        with pytest.raises(CheckpointCorrupt):
            decode_checkpoint(b"REPRO-CHECKPOINT v1 crc32=0 length=0")

    def test_torn_body(self):
        data = encode_checkpoint(self.BODY)
        with pytest.raises(CheckpointCorrupt):
            decode_checkpoint(data[:-3])

    def test_flipped_body_bit(self):
        data = bytearray(encode_checkpoint(self.BODY))
        data[-1] ^= 0x01
        with pytest.raises(CheckpointCorrupt):
            decode_checkpoint(bytes(data))

    def test_wrong_format_version(self):
        with pytest.raises(CheckpointCorrupt):
            decode_checkpoint(encode_checkpoint(dict(self.BODY, format=99)))


# ---------------------------------------------------------------------------
# DurableStore: reopen equality and recovery behavior


class TestDurableStore:
    def test_reopen_restores_triples_and_schema(self, tmp_path):
        directory = str(tmp_path / "wal")
        durable = DurableStore.open(directory, sync="never")
        durable.load(books_graph(), books_schema())
        expected = set(durable.store.to_graph())
        closure = set(durable.store.schema.entailed_triples())
        durable.close()

        reopened = DurableStore.open(directory, sync="never")
        assert set(reopened.store.to_graph()) == expected
        assert set(reopened.store.schema.entailed_triples()) == closure

    def test_reopen_after_checkpoint_and_suffix(self, tmp_path):
        directory = str(tmp_path / "wal")
        durable = DurableStore.open(directory, sync="never")
        triples = sample_triples()
        for triple in triples[:3]:
            durable.insert(triple)
        durable.checkpoint()
        for triple in triples[3:]:
            durable.insert(triple)
        durable.delete(triples[0])
        durable.close()

        result = recover(directory)
        assert result.checkpoint_sequence == 1
        # Only the post-checkpoint suffix replays.
        assert result.records_replayed == 4
        assert set(result.store.to_graph()) == set(triples[1:])

    def test_deletes_and_constraint_removal_replay(self, tmp_path):
        directory = str(tmp_path / "wal")
        durable = DurableStore.open(directory, sync="never",
                                    with_saturator=True)
        constraint = Constraint.subclass(EX.Manager, EX.Employee)
        durable.add_constraint(constraint)
        durable.insert(Triple(EX.ann, RDF_TYPE, EX.Manager))
        durable.remove_constraint(constraint)
        durable.close()

        result = recover(directory, with_saturator=True)
        saturated = result.saturator.saturated()
        assert Triple(EX.ann, RDF_TYPE, EX.Manager) in saturated
        assert Triple(EX.ann, RDF_TYPE, EX.Employee) not in saturated
        assert len(result.store.schema) == 0

    def test_constraint_is_one_record(self, tmp_path):
        """One C+ record covers its derived schema-triple inserts."""
        directory = str(tmp_path / "wal")
        durable = DurableStore.open(directory, sync="never")
        durable.add_constraint(Constraint.subclass(EX.A, EX.B))
        durable.add_constraint(Constraint.subclass(EX.B, EX.C))  # closes A<C
        assert durable.records_logged == 2
        durable.close()
        result = recover(directory)
        assert set(result.store.schema.entailed_triples()) == {
            Constraint.subclass(EX.A, EX.B).to_triple(),
            Constraint.subclass(EX.B, EX.C).to_triple(),
            Constraint.subclass(EX.A, EX.C).to_triple(),
        }

    def test_duplicate_ops_not_logged(self, tmp_path):
        durable = DurableStore.open(str(tmp_path / "wal"), sync="never")
        triple = Triple(EX.a, RDF_TYPE, EX.C)
        assert durable.insert(triple)
        assert not durable.insert(triple)
        assert not durable.delete(Triple(EX.zz, RDF_TYPE, EX.C))
        assert durable.records_logged == 1

    def test_epochs_survive_recovery(self, tmp_path):
        directory = str(tmp_path / "wal")
        durable = DurableStore.open(directory, sync="never")
        durable.add_constraint(Constraint.subclass(EX.A, EX.B))
        for triple in sample_triples(4):
            durable.insert(triple)
        live = (durable.data_epoch, durable.schema_epoch)
        durable.checkpoint()
        durable.insert(Triple(EX.extra, RDF_TYPE, EX.C))
        durable.close()

        reopened = DurableStore.open(directory)
        assert reopened.data_epoch == live[0] + 1
        assert reopened.schema_epoch == live[1]

        cache = QueryCache()
        reopened.attach_cache(cache)
        assert cache.data_epoch == reopened.data_epoch
        assert cache.schema_epoch == reopened.schema_epoch
        # Epochs never move backwards on attach.
        advanced = QueryCache()
        advanced.data_epoch = 10 ** 6
        reopened.attach_cache(advanced)
        assert advanced.data_epoch == 10 ** 6

    def test_corrupt_latest_checkpoint_falls_back(self, tmp_path):
        directory = str(tmp_path / "wal")
        durable = DurableStore.open(directory, sync="never")
        triples = sample_triples()
        for triple in triples[:2]:
            durable.insert(triple)
        durable.checkpoint()
        for triple in triples[2:4]:
            durable.insert(triple)
        second = durable.checkpoint()
        durable.close()

        # Bit-rot the newest checkpoint; the previous one (and its
        # retained WAL segments) must reconstruct the same state.
        blob = bytearray(FileSystem().read(second))
        blob[len(blob) // 2] ^= 0x10
        FileSystem().write(second, bytes(blob))

        result = recover(directory)
        assert result.checkpoint_sequence == 1
        assert result.corrupt_checkpoints
        assert set(result.store.to_graph()) == set(triples[:4])

    def test_all_checkpoints_corrupt_replays_wal_from_scratch(self, tmp_path):
        directory = str(tmp_path / "wal")
        durable = DurableStore.open(directory, sync="never")
        triples = sample_triples(4)
        for triple in triples:
            durable.insert(triple)
        path = durable.checkpoint()
        durable.close()
        FileSystem().write(path, b"REPRO-CHECKPOINT v1 garbage\n{}")

        result = recover(directory)
        assert result.checkpoint_sequence is None
        assert set(result.store.to_graph()) == set(triples)

    def test_garbage_wal_tail_truncated_and_resumable(self, tmp_path):
        directory = str(tmp_path / "wal")
        durable = DurableStore.open(directory, sync="never")
        triples = sample_triples(4)
        for triple in triples[:3]:
            durable.insert(triple)
        durable.close()
        io = FileSystem()
        io.append(wal_path(directory, 0), b"\xde\xad\xbe\xef")
        io.close_all()

        result = recover(directory)
        assert result.truncated and result.truncated_bytes == 4
        assert set(result.store.to_graph()) == set(triples[:3])

        # Truncation is physical: appends continue cleanly after it.
        reopened = DurableStore.open(directory, sync="never")
        reopened.insert(triples[3])
        reopened.close()
        assert set(recover(directory).store.to_graph()) == set(triples)

    def test_valid_record_with_alien_payload_truncates(self, tmp_path):
        directory = str(tmp_path / "wal")
        durable = DurableStore.open(directory, sync="never")
        durable.insert(Triple(EX.a, RDF_TYPE, EX.C))
        durable.wal.append(b"not an op at all")
        durable.insert(Triple(EX.b, RDF_TYPE, EX.C))
        durable.close()

        result = recover(directory)
        assert result.truncated
        assert "undecodable" in result.reason
        # The prefix property holds: everything after the alien record
        # is dropped even though its frames were valid.
        assert set(result.store.to_graph()) == {Triple(EX.a, RDF_TYPE, EX.C)}

    def test_retention_keeps_fallback_checkpoint(self, tmp_path):
        directory = str(tmp_path / "wal")
        durable = DurableStore.open(directory, sync="never")
        for index, triple in enumerate(sample_triples(5)):
            durable.insert(triple)
            durable.checkpoint()
        durable.close()
        io = FileSystem()
        names = io.listdir(directory)
        checkpoints = [n for n in names if n.startswith("checkpoint-")]
        assert checkpoints == [
            "checkpoint-00000004.ckpt", "checkpoint-00000005.ckpt"
        ]
        # Segments older than the fallback checkpoint's are pruned.
        segments = [n for n in names if n.startswith("wal-")]
        assert min(segments) >= "wal-00000004.log"
        assert set(recover(directory).store.to_graph()) == set(
            sample_triples(5))

    def test_pinned_snapshot_survives_checkpoint_rotation(self, tmp_path):
        # A pinned snapshot must stay readable after the checkpoint it
        # froze against is rotated out by the retention window: the
        # pin's lifetime is the reader's, not the pruner's.
        directory = str(tmp_path / "wal")
        durable = DurableStore.open(directory, sync="never")
        triples = sample_triples(6)
        for triple in triples[:3]:
            durable.insert(triple)
        durable.checkpoint()
        snapshot = durable.pin_snapshot()
        pinned_label = snapshot.label
        # Three more checkpoints push the pin-time one past the
        # retention window (KEEP_CHECKPOINTS = 2) and prune it.
        for triple in triples[3:]:
            durable.insert(triple)
            durable.checkpoint()
        io = FileSystem()
        checkpoints = sorted(
            n for n in io.listdir(directory) if n.startswith("checkpoint-"))
        assert "checkpoint-00000001.ckpt" not in checkpoints
        # The pinned view still reads the pre-rotation state exactly.
        assert snapshot.label == pinned_label
        assert set(snapshot.store().to_graph()) == set(triples[:3])
        assert durable.store.triple_count == 6
        snapshot.release()
        durable.close()

    def test_recover_empty_directory(self, tmp_path):
        result = recover(str(tmp_path / "nothing"))
        assert result.empty
        assert result.store.triple_count == 0
        summary = result.summary()
        assert summary["empty"] is True and summary["triples"] == 0


# ---------------------------------------------------------------------------
# Satellite: recovered statistics equal a fresh from_graph build


class TestRecoveredStatistics:
    def _per_property(self, store):
        """Per-property statistics keyed by decoded term — id
        assignment differs between recovery paths and from_graph."""
        return {
            store.dictionary.decode(property_id): (
                stats.triples,
                stats.distinct_subjects,
                stats.distinct_objects,
            )
            for property_id, stats in store.statistics.per_property.items()
        }

    def _class_cardinality(self, store):
        return {
            store.dictionary.decode(class_id): count
            for class_id, count in store.statistics.class_cardinality.items()
        }

    def _assert_stats_match_fresh(self, recovered):
        fresh = TripleStore.from_graph(recovered.to_graph(), recovered.schema)
        assert self._per_property(recovered) == self._per_property(fresh)
        assert self._class_cardinality(recovered) == self._class_cardinality(
            fresh)
        assert recovered.statistics.total_triples == (
            fresh.statistics.total_triples)

    def test_stats_after_wal_only_recovery(self, tmp_path):
        directory = str(tmp_path / "wal")
        durable = DurableStore.open(directory, sync="never")
        durable.load(books_graph(), books_schema())
        durable.close()
        self._assert_stats_match_fresh(recover(directory).store)

    def test_stats_after_checkpoint_recovery(self, tmp_path):
        directory = str(tmp_path / "wal")
        durable = DurableStore.open(directory, sync="never")
        durable.load(books_graph(), books_schema())
        durable.checkpoint()
        durable.insert(Triple(EX.late, RDF_TYPE, EX.C))
        durable.close()
        self._assert_stats_match_fresh(recover(directory).store)

    def test_stats_after_delete_heavy_history(self, tmp_path):
        directory = str(tmp_path / "wal")
        durable = DurableStore.open(directory, sync="never")
        triples = sample_triples(8)
        for triple in triples:
            durable.insert(triple)
        for triple in triples[::2]:
            durable.delete(triple)
        durable.close()
        recovered = recover(directory).store
        assert set(recovered.to_graph()) == set(triples[1::2])
        self._assert_stats_match_fresh(recovered)

    def test_verify_recovery_passes_on_clean_state(self, tmp_path):
        directory = str(tmp_path / "wal")
        durable = DurableStore.open(directory, sync="never",
                                    with_saturator=True)
        durable.load(books_graph(), books_schema())
        durable.checkpoint()
        durable.close()
        result = recover(directory, with_saturator=True)
        assert verify_recovery(result) == []


    def test_verify_recovery_flags_a_broken_saturation(self, tmp_path):
        directory = str(tmp_path / "wal")
        durable = DurableStore.open(directory, sync="never")
        durable.load(books_graph(), books_schema())
        durable.close()
        result = recover(directory, with_saturator=True)
        saturated = result.saturator.store
        saturated.delete(next(result.store.data_triples()))
        assert verify_recovery(result) == [
            "saturation lost base triples",
            "saturated store holds %d triples beyond the base, its support "
            "counts %d" % (result.saturator.derived_count - 1,
                           result.saturator.derived_count),
        ]


# ---------------------------------------------------------------------------
# Checkpoints written before saturation left the body


class TestCheckpointWithSaturationSection:
    """Bodies once carried a ``"saturation"`` section: the saturator's
    schema, explicit triples and support counts in N-Triples.  Such a
    checkpoint restores; the section is ignored and the saturation is
    rebuilt from the restored store."""

    def schema_and_data(self):
        constraints = [
            Constraint.subclass(EX.Manager, EX.Employee),
            Constraint.domain(EX.manages, EX.Manager),
        ]
        data = [
            Triple(EX.ann, EX.manages, EX.bob),
            Triple(EX.bob, RDF_TYPE, EX.Manager),
        ]
        return constraints, data

    def write_parent_checkpoint(self, directory):
        constraints, data = self.schema_and_data()
        durable = DurableStore.open(directory, sync="never")
        for constraint in constraints:
            durable.add_constraint(constraint)
        for triple in data:
            durable.insert(triple)
        path = durable.checkpoint()
        durable.close()
        body = decode_checkpoint(FileSystem().read(path))
        assert "saturation" not in body
        body["saturation"] = {
            "schema": sorted(c.to_triple().n3() for c in constraints),
            "explicit": sorted(triple.n3() for triple in data),
            "support": sorted(
                [Triple(subject, RDF_TYPE, klass).n3(), 1]
                for subject, klass in (
                    (EX.ann, EX.Manager), (EX.ann, EX.Employee),
                    (EX.bob, EX.Employee))
            ),
        }
        FileSystem().write(path, encode_checkpoint(body))

    def test_restores_and_rebuilds_the_saturation(self, tmp_path):
        from repro.rdf import Graph
        from repro.saturation import saturate
        from repro.schema import Schema

        directory = str(tmp_path / "wal")
        self.write_parent_checkpoint(directory)
        result = recover(directory, with_saturator=True)
        assert result.checkpoint_sequence == 1
        assert result.corrupt_checkpoints == []
        assert result.records_replayed == 0
        constraints, data = self.schema_and_data()
        assert set(result.saturator.saturated()) == set(
            saturate(Graph(data), Schema(constraints)))
        assert verify_recovery(result) == []
        assert recover(directory).saturator is None


class TestIdsFollowTheOperations:
    """The ids a durable store assigns depend on the operations it
    applied, not on whether a saturator ran: ``state_crc`` hashes the
    dictionary, and replication compares it across nodes and restarts.
    The data states no type, so only the domain calls for rdf:type."""

    def feed(self, durable):
        durable.add_constraint(Constraint.subclass(EX.Manager, EX.Employee))
        durable.add_constraint(Constraint.domain(EX.manages, EX.Manager))
        durable.insert(Triple(EX.ann, EX.manages, EX.bob))
        durable.add_constraint(Constraint.range(EX.manages, EX.Person))
        durable.insert(Triple(EX.bob, EX.manages, EX.cid))

    def test_a_saturator_leaves_the_state_crc_alone(self, tmp_path):
        crcs = []
        for with_saturator in (False, True):
            directory = str(tmp_path / ("sat" if with_saturator else "plain"))
            durable = DurableStore.open(
                directory, sync="never", with_saturator=with_saturator)
            self.feed(durable)
            crcs.append(durable.state_crc())
            durable.close()
            for saturate in (False, True):  # WAL-only recovery
                reopened = DurableStore.open(directory, with_saturator=saturate)
                assert reopened.checkpoint_sequence == 0
                crcs.append(reopened.state_crc())
                reopened.close()
        assert len(set(crcs)) == 1, crcs

    def test_a_bulk_load_recovers_to_the_same_ids(self, tmp_path):
        """``load`` applies its constraints in one closure, replay one
        ``C+`` record at a time; both give the terms the same ids."""
        from repro.rdf import Graph
        from repro.schema import Schema

        schema = Schema([
            Constraint.subclass(EX.Manager, EX.Employee),
            Constraint.subclass(EX.Employee, EX.Person),
            Constraint.subproperty(EX.manages, EX.worksWith),
            Constraint.domain(EX.manages, EX.Manager),
            Constraint.range(EX.worksWith, EX.Person),
        ])
        directory = str(tmp_path / "wal")
        durable = DurableStore.open(directory, sync="never")
        durable.load(Graph([Triple(EX.ann, EX.manages, EX.bob)]), schema)
        crc = durable.state_crc()
        durable.close()
        reopened = DurableStore.open(directory)
        assert reopened.checkpoint_sequence == 0
        assert reopened.state_crc() == crc
        reopened.close()


# ---------------------------------------------------------------------------
# Query answers survive recovery


class TestAnswersAfterRecovery:
    def test_books_answers_equal_after_reopen(self, tmp_path):
        directory = str(tmp_path / "wal")
        durable = DurableStore.open(directory, sync="never")
        durable.load(books_graph(), books_schema())
        durable.close()

        query = books_example_query()
        result = recover(directory)
        recovered_answer = QueryAnswerer(result.store.to_graph()).answer(
            query, Strategy.REF_UCQ)
        fresh_answer = QueryAnswerer(
            books_graph(), schema=books_schema()).answer(
                query, Strategy.REF_UCQ)
        assert recovered_answer.answer == fresh_answer.answer
        assert recovered_answer.cardinality > 0
