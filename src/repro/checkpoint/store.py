"""Snapshot format and the hash-diff checkpoint store.

A checkpoint of a resident topology is a :class:`Manifest`: one epoch
number plus a mapping from every checkpointed partition -- a
``(component, task_index)`` key -- to the sha256 digest of that task's
pickled state, plus an opaque coordinator blob (sink counts, watermark
high-water mark, source progress).  Blobs live in a content-addressed
table keyed by digest, so:

- a partition whose state did not change between epochs is persisted
  **zero** times -- the new manifest simply references the digest it
  already stored (the merkle-style hash-diff that makes steady-state
  checkpoints cheap);
- two tasks that happen to hold identical state share one blob;
- garbage collection is trivial: after a commit, drop every blob the
  newest manifest no longer references (recovery only ever restores the
  latest epoch).

The store is in-memory by default -- it lives in the coordinator
process, which supervises (and outlives) the workers, exactly the
failure domain the streaming ``processes`` executor defends against.
Pass ``directory=`` to additionally persist blobs and manifests to
disk, surviving a coordinator restart as well.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: one checkpointed partition: (component name, task index)
TaskKey = Tuple[str, int]


class CheckpointError(RuntimeError):
    """A snapshot could not be taken, persisted, or restored."""


def snapshot_blob(task: object) -> bytes:
    """Serialize one task's state into a snapshot blob.

    Raises :class:`CheckpointError` naming the task type when the state
    is not pickle-safe (e.g. windowed operators holding factory
    closures) -- the caller should fall back to the ``inline`` executor
    for such plans.
    """
    try:
        return pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"task state of {type(task).__name__} is not pickle-safe "
            f"({exc}); run this plan with executor='inline'"
        ) from exc


def hash_blob(blob: bytes) -> str:
    """Content address of a snapshot blob (sha256 hex digest)."""
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class Manifest:
    """One consistent snapshot of a resident topology at an epoch barrier.

    ``digests`` maps every checkpointed partition to the content hash of
    its state blob; ``coordinator`` is the coordinator's own pickled
    state (delta-sink multisets, the broadcast watermark, per-source
    progress counters) -- always persisted whole, it is tiny next to
    operator state.
    """

    epoch: int
    digests: Dict[TaskKey, str]
    coordinator: bytes

    def partitions(self) -> List[TaskKey]:
        return sorted(self.digests)


@dataclass
class CommitResult:
    """What one checkpoint actually cost.

    The incremental-checkpoint assertion surface: ``persisted`` counts
    partitions whose state hash changed since the previous epoch (their
    blobs were written), ``skipped`` counts partitions the hash-diff
    proved unchanged (zero bytes moved), ``bytes_persisted`` is the
    total size of newly written blobs (coordinator blob included).
    """

    epoch: int
    persisted: int = 0
    skipped: int = 0
    bytes_persisted: int = 0
    #: partitions persisted this epoch (for tests and the demo transcript)
    persisted_keys: List[TaskKey] = field(default_factory=list)


class CheckpointStore:
    """Content-addressed snapshot storage with per-epoch manifests.

    Thread-safe; the coordinator commits and the serving layer may read
    concurrently.  Only the latest manifest is retained (recovery always
    restores the newest consistent snapshot) and blobs are
    garbage-collected down to the set it references.
    """

    #: squall-lint lock-discipline contract: blob map and manifest only
    #: move under the store lock (commit vs. concurrent serving reads)
    GUARDED_BY = {
        "_blobs": "_lock",
        "_manifest": "_lock",
    }

    def __init__(self, directory: Optional[str] = None):
        self._lock = threading.Lock()
        self._blobs: Dict[str, bytes] = {}
        self._manifest: Optional[Manifest] = None
        self.directory = directory
        if directory is not None:
            os.makedirs(os.path.join(directory, "objects"), exist_ok=True)

    # -- commit ------------------------------------------------------------

    def known_digests(self) -> Dict[TaskKey, str]:
        """Digest per partition of the latest manifest (empty before the
        first commit).  Workers use this to hash-diff: a task whose fresh
        digest matches ships no blob."""
        with self._lock:
            if self._manifest is None:
                return {}
            return dict(self._manifest.digests)

    def commit(self, epoch: int,
               snapshots: Dict[TaskKey, Tuple[str, Optional[bytes]]],
               coordinator: bytes) -> CommitResult:
        """Store one epoch's snapshot set and make it the restore point.

        ``snapshots`` maps each partition to ``(digest, blob)`` where
        ``blob`` is ``None`` when the digest is already stored (the
        hash-diff skip).  Raises :class:`CheckpointError` if a digest is
        neither supplied nor already known -- a protocol bug that would
        make the manifest unrestorable.
        """
        result = CommitResult(epoch=epoch)
        with self._lock:
            digests: Dict[TaskKey, str] = {}
            for key, (digest, blob) in sorted(snapshots.items()):
                digests[key] = digest
                if blob is not None:
                    if digest not in self._blobs:
                        self._blobs[digest] = blob
                        self._write_object(digest, blob)
                        result.bytes_persisted += len(blob)
                    result.persisted += 1
                    result.persisted_keys.append(key)
                elif digest in self._blobs:
                    result.skipped += 1
                else:
                    raise CheckpointError(
                        f"epoch {epoch}: partition {key} reports digest "
                        f"{digest[:12]}... without a blob, but the store "
                        f"has never seen it"
                    )
            result.bytes_persisted += len(coordinator)
            self._manifest = Manifest(
                epoch=epoch, digests=digests, coordinator=coordinator)
            self._write_manifest(self._manifest)
            self._collect_garbage()
        return result

    def _collect_garbage(self):  # squall-lint: holds=_lock
        """Drop blobs the latest manifest no longer references."""
        live = set(self._manifest.digests.values())
        for digest in [d for d in self._blobs if d not in live]:
            del self._blobs[digest]
            if self.directory is not None:
                path = os.path.join(self.directory, "objects", digest)
                if os.path.exists(path):
                    os.remove(path)

    # -- restore -----------------------------------------------------------

    def latest(self) -> Optional[Manifest]:
        """The newest committed manifest (the restore point), or None."""
        with self._lock:
            return self._manifest

    def blob(self, digest: str) -> bytes:
        """Fetch one state blob by content hash."""
        with self._lock:
            blob = self._blobs.get(digest)
        if blob is None and self.directory is not None:
            path = os.path.join(self.directory, "objects", digest)
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    return handle.read()
        if blob is None:
            raise CheckpointError(f"no blob stored for digest {digest[:12]}...")
        return blob

    def restore_set(self, manifest: Manifest) -> Dict[TaskKey, bytes]:
        """All state blobs of one manifest, keyed by partition."""
        return {key: self.blob(digest)
                for key, digest in manifest.digests.items()}

    # -- introspection -----------------------------------------------------

    @property
    def blob_count(self) -> int:
        with self._lock:
            return len(self._blobs)

    def total_bytes(self) -> int:
        """Bytes currently retained (latest manifest's blobs)."""
        with self._lock:
            return sum(len(blob) for blob in self._blobs.values())

    # -- optional directory backend ----------------------------------------

    def _write_object(self, digest: str, blob: bytes):
        if self.directory is None:
            return
        path = os.path.join(self.directory, "objects", digest)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)  # atomic publish: readers never see a torn blob

    def _write_manifest(self, manifest: Manifest):
        if self.directory is None:
            return
        path = os.path.join(self.directory, "MANIFEST")
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            pickle.dump(manifest, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)

    @classmethod
    def open(cls, directory: str) -> "CheckpointStore":
        """Re-open a directory-backed store, loading its latest manifest."""
        store = cls(directory=directory)
        path = os.path.join(directory, "MANIFEST")
        if os.path.exists(path):
            with open(path, "rb") as handle:
                manifest = pickle.load(handle)
            store._manifest = manifest
            for digest in set(manifest.digests.values()):
                store._blobs[digest] = store.blob(digest)
        return store
