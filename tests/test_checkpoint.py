"""The checkpoint subsystem in isolation: store, manifests, change log.

The streaming integration (crash recovery end to end) lives in
``tests/test_streaming_processes.py``; this file pins the storage
semantics those tests rely on -- content addressing, the hash-diff
incremental skip, garbage collection down to the latest manifest, the
directory backend's reopen path, and the change log's replay contract.
"""

import pickle

import pytest

from repro.checkpoint import (
    ChangeLog,
    CheckpointError,
    CheckpointStore,
    hash_blob,
    snapshot_blob,
)
from repro.engine.component import JoinComponent
from repro.engine.runner import JoinBolt
from repro.joins import DBToasterJoin
from tests.test_local_joins import (
    apply_op,
    assert_twins_agree,
    columnar_script,
    shape_spec,
)


def _commit(store, epoch, tasks, coordinator=b"coord"):
    """Commit `tasks` ({key: object}) the way the coordinator does:
    hash-diff against the store's latest manifest."""
    known = store.known_digests()
    snapshots = {}
    for key, task in tasks.items():
        blob = snapshot_blob(task)
        digest = hash_blob(blob)
        snapshots[key] = (digest, None if known.get(key) == digest else blob)
    return store.commit(epoch, snapshots, coordinator)


class TestSnapshotBlob:
    def test_roundtrip(self):
        state = {"rows": [(1, 2), (3, 4)], "count": 7}
        assert pickle.loads(snapshot_blob(state)) == state

    def test_unpicklable_state_names_the_task_type(self):
        class Windowed:
            def __init__(self):
                self.factory = lambda: 0  # closures never pickle

        with pytest.raises(CheckpointError, match="Windowed"):
            snapshot_blob(Windowed())

    def test_error_advises_fallback_executors(self):
        with pytest.raises(CheckpointError, match="inline"):
            snapshot_blob(lambda: 0)


class TestCheckpointStore:
    def test_first_commit_persists_everything(self):
        store = CheckpointStore()
        result = _commit(store, 0, {("J", 0): [1, 2], ("J", 1): [3]})
        assert result.persisted == 2
        assert result.skipped == 0
        assert result.bytes_persisted > len(b"coord")
        assert store.latest().epoch == 0

    def test_unchanged_partition_ships_zero_bytes(self):
        store = CheckpointStore()
        state = {("J", 0): [1, 2], ("J", 1): [3]}
        _commit(store, 0, state)
        baseline = store.total_bytes()
        result = _commit(store, 1, state)
        assert result.persisted == 0
        assert result.skipped == 2
        # only the coordinator blob moved
        assert result.bytes_persisted == len(b"coord")
        assert store.total_bytes() == baseline

    def test_incremental_commit_persists_only_the_changed_partition(self):
        store = CheckpointStore()
        _commit(store, 0, {("J", 0): [1], ("J", 1): [2], ("A", 0): [3]})
        result = _commit(store, 1, {("J", 0): [1], ("J", 1): [2, 9],
                                    ("A", 0): [3]})
        assert result.persisted == 1
        assert result.persisted_keys == [("J", 1)]
        assert result.skipped == 2

    def test_identical_state_shares_one_blob(self):
        store = CheckpointStore()
        _commit(store, 0, {("J", 0): [7, 7], ("J", 1): [7, 7]})
        assert store.blob_count == 1

    def test_garbage_collection_drops_superseded_blobs(self):
        store = CheckpointStore()
        _commit(store, 0, {("J", 0): [1]})
        _commit(store, 1, {("J", 0): [2]})
        # epoch 0's blob is unreachable: only the latest manifest restores
        assert store.blob_count == 1
        manifest = store.latest()
        assert pickle.loads(store.blob(manifest.digests[("J", 0)])) == [2]

    def test_restore_set_returns_every_partition(self):
        store = CheckpointStore()
        _commit(store, 0, {("J", 0): [1], ("A", 0): [2]})
        blobs = store.restore_set(store.latest())
        assert {key: pickle.loads(blob) for key, blob in blobs.items()} == {
            ("J", 0): [1], ("A", 0): [2]}

    def test_digest_without_blob_and_unknown_is_refused(self):
        store = CheckpointStore()
        with pytest.raises(CheckpointError, match="without a blob"):
            store.commit(0, {("J", 0): ("0" * 64, None)}, b"")

    def test_manifest_partitions_sorted(self):
        store = CheckpointStore()
        _commit(store, 0, {("J", 1): [1], ("A", 0): [2], ("J", 0): [3]})
        assert store.latest().partitions() == [("A", 0), ("J", 0), ("J", 1)]

    def test_missing_blob_raises(self):
        with pytest.raises(CheckpointError, match="no blob"):
            CheckpointStore().blob("f" * 64)


class TestDirectoryBackend:
    def test_reopen_restores_latest_manifest(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        store = CheckpointStore(directory=directory)
        _commit(store, 0, {("J", 0): [1]}, coordinator=b"c0")
        _commit(store, 1, {("J", 0): [1, 2]}, coordinator=b"c1")

        reopened = CheckpointStore.open(directory)
        manifest = reopened.latest()
        assert manifest.epoch == 1
        assert manifest.coordinator == b"c1"
        blobs = reopened.restore_set(manifest)
        assert pickle.loads(blobs[("J", 0)]) == [1, 2]

    def test_disk_garbage_collection(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        store = CheckpointStore(directory=directory)
        _commit(store, 0, {("J", 0): [1]})
        _commit(store, 1, {("J", 0): [2]})
        objects = list((tmp_path / "ckpt" / "objects").iterdir())
        assert len(objects) == 1

    def test_open_on_empty_directory(self, tmp_path):
        store = CheckpointStore.open(str(tmp_path / "fresh"))
        assert store.latest() is None


class TestChangeLog:
    def test_replay_preserves_order_and_kinds(self):
        """One entry kind: polls are logged into the round they were
        routed in, and a round carries the watermark that closed it, or
        None when a marked round boundary did; a watermark with no round
        open closes a round that polled nothing."""
        log = ChangeLog()
        log.record_data("R", [("R", (1, 2))], (0, {}))
        log.record_data("S", [("S", (3,))], (0, {}))
        log.close_round(5.0)
        log.close_round(6.0)
        log.record_data("S", [("S", (3, 4)), ("S", (5, 6))], (0, {"S": 7}))
        log.begin_round()
        log.begin_round()  # a round that polled nothing logs nothing
        log.record_data("R", [("R", (7, 8))], (0, {"R": 1}))
        entries = list(log.replay())
        assert entries == [
            ([("R", [("R", (1, 2))], (0, {})),
              ("S", [("S", (3,))], (0, {}))], 5.0),
            ([], 6.0),
            ([("S", [("S", (3, 4)), ("S", (5, 6))], (0, {"S": 7}))], None),
            ([("R", [("R", (7, 8))], (0, {"R": 1}))], None),
        ]
        assert log.rows == 5

    def test_truncate_empties_the_log(self):
        log = ChangeLog()
        log.record_data("R", [("R", (1,))], (0, {}))
        log.truncate()
        assert not log
        assert log.rows == 0
        assert list(log.replay()) == []

    def test_replay_iterates_a_copy(self):
        log = ChangeLog()
        log.record_data("R", [("R", (1,))], (0, {}))
        replay = log.replay()
        log.truncate()  # a checkpoint committing mid-replay
        assert len(list(replay)) == 1


class TestJoinBlobs:
    """What a streaming checkpoint stores of a columnar join task:
    columns, multiplicities and index key positions -- no capacity, no
    indexes, no probe plans -- so equal states hash equal."""

    @staticmethod
    def join_bolt(ops):
        spec = shape_spec("chain")
        bolt = JoinBolt(JoinComponent("J", spec, machines=1),
                        lambda: DBToasterJoin(spec))
        for op in ops:
            apply_op(bolt._local, op)
        return bolt

    @pytest.mark.parametrize("cut", [1, 9, 23])
    def test_twin_restored_from_a_snapshot_blob_continues_identically(
            self, cut):
        ops = columnar_script("chain", seed=11)
        original = self.join_bolt(ops[:cut])
        twin = pickle.loads(snapshot_blob(original))
        assert twin.state is twin._local  # one join object, not two
        assert_twins_agree("chain", original._local, twin._local, ops[cut:])

    def test_equal_states_make_byte_identical_blobs(self):
        ops = columnar_script("chain", seed=12)
        first = self.join_bolt(ops)
        blob = snapshot_blob(first)
        assert snapshot_blob(first) == blob
        # the same state reached a second time (a recovery replay, or a
        # worker that was fed the same batches) hashes the same
        assert hash_blob(snapshot_blob(self.join_bolt(ops))) == \
            hash_blob(blob)
        # and a restore does not perturb it: an untouched partition is
        # skipped by the next incremental commit
        assert snapshot_blob(pickle.loads(blob)) == blob

    def test_blob_holds_no_capacity_beyond_the_live_rows(self):
        bolt = self.join_bolt(columnar_script("chain", seed=13))
        live = bolt._local._cviews
        assert any(len(col.data) > col.n
                   for cview in live.values() for col in cview.cols)
        restored = pickle.loads(snapshot_blob(bolt))._local._cviews
        for subset, cview in restored.items():
            for col, original in zip(cview.cols + [cview.mults],
                                     live[subset].cols + [live[subset].mults]):
                assert col.n == original.n
                assert col.data is None or len(col.data) == col.n
