"""Sharded persistent store with an append-only journal index.

:class:`~repro.ckpt.kvstore.DiskKVStore` rewrites its whole JSON index on
every put — O(n) per write, O(n²) across a training run, and a single
hot directory holding every entry file.  This store fixes both:

* **Sharded layout** — entries live under ``<root>/shards/<hh>/`` where
  ``hh`` is a hash prefix of the key, keeping directories small and
  letting parallel readers/writers fan out across shards.
* **Journal index** — metadata is an append-only JSONL file.  A put
  appends one line (O(1)); opening the store replays the journal, last
  record per key winning.  Deletes append tombstones.  A torn final
  line (crash mid-append) is truncated on replay, so the store recovers
  to the last complete record.
* **Periodic compaction** — when the journal holds far more records
  than live keys, it is rewritten to one record per key (atomic via
  ``os.replace``).  ``compactions`` counts them; ``journal_appends``
  counts appended records, and ``index_rewrites`` stays 0 by
  construction (the property the microbenchmark asserts).

Crash consistency
-----------------
Payload files are *versioned*: entry ``k`` at stamp ``s`` lives in
``<escaped k>@<s>.bin`` (``<escaped k>@<s>.<gen>.bin`` for repeated
writes at the same stamp — see :meth:`ShardedDiskKVStore._path` for why
the ``@`` separator matters), and the journal record for a put names
the stamp whose file it refers to.  An overwrite therefore writes a **new**
file and only then appends the journal record; the previous version's
file is unlinked only after the record naming its successor is durable.
Every crash window leaves the store consistent:

* crash before the new payload's ``os.replace`` — old file + old record
  intact, a stray ``.tmp`` is ignored;
* crash after the payload lands but before the journal append — the new
  file is an invisible orphan; replay serves the previous version with
  matching metadata (stamp, nbytes and bytes all agree — unlike a flat
  store that overwrites payloads in place);
* crash mid-append — the torn journal line is truncated on replay;
* crash mid-compaction — the compacted file is still a ``.tmp``; the
  original journal is untouched.

Batched puts defer both the journal append and superseded-file removal
to the end of the batch, so payloads never outlive the records that
reference them in the wrong order.  The crash-injection test suite
(``tests/test_crash_injection.py``) drives every window above through
the ``fault_hook`` seam on :class:`~repro.ckpt.backend.CheckpointBackend`.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List

from . import jsonl
from .backend import CheckpointBackend, CrashInjected, KVStoreError, escape_key
from .serializer import write_payload


class ShardedDiskKVStore(CheckpointBackend):
    """Persistent tier: hash-sharded versioned entry files + JSONL journal."""

    def __init__(
        self,
        root: str,
        shard_width: int = 2,
        compact_min_records: int = 256,
        compact_garbage_ratio: float = 4.0,
    ) -> None:
        super().__init__()
        if shard_width < 1:
            raise ValueError("shard_width must be >= 1")
        if compact_garbage_ratio <= 1.0:
            raise ValueError("compact_garbage_ratio must be > 1")
        self.root = root
        self.shard_width = shard_width
        self.compact_min_records = compact_min_records
        self.compact_garbage_ratio = compact_garbage_ratio
        self._shards_dir = os.path.join(root, "shards")
        self._journal_path = os.path.join(root, "index.jsonl")
        os.makedirs(self._shards_dir, exist_ok=True)
        self._index: Dict[str, Dict[str, int]] = {}
        self._shard_dirs_made: set = set()
        self._defer_journal = False
        self._pending_records: List[dict] = []
        # Superseded / deleted payload files whose removal must wait for
        # the journal records that stop referencing them (batched path).
        self._pending_unlinks: List[str] = []
        self.journal_records = 0  # records currently in the journal file
        self.journal_appends = 0  # records appended by this instance
        self.compactions = 0
        self.index_rewrites = 0  # always 0; meter kept for symmetry
        self._replay()

    # -- journal --------------------------------------------------------
    def _replay(self) -> None:
        """Rebuild the in-memory index from the journal.

        The journal is append-only, so only its *final* line can be torn
        by a crash; a line that fails to parse is treated as the torn
        tail: replay stops there and the file is truncated back to the
        last complete record, so later appends cannot concatenate onto
        the torn fragment (which would corrupt the *next* replay).
        """
        if not os.path.exists(self._journal_path):
            return
        valid_bytes = 0
        with open(self._journal_path, "rb") as handle:
            for line in handle:
                if not line.endswith(b"\n"):
                    # A complete record always ends with the newline its
                    # append wrote before acknowledging; a parseable tail
                    # without one is still a torn write, and accepting it
                    # would let the next append concatenate onto it and
                    # a later replay drop acknowledged records.
                    break
                try:
                    record = json.loads(line.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    break
                valid_bytes += len(line)
                self.journal_records += 1
                if record["op"] == "put":
                    self._index[record["key"]] = {
                        "stamp": int(record["stamp"]),
                        "nbytes": int(record["nbytes"]),
                        "gen": int(record.get("gen", 0)),
                    }
                elif record["op"] == "del":
                    self._index.pop(record["key"], None)
        if valid_bytes < os.path.getsize(self._journal_path):
            os.truncate(self._journal_path, valid_bytes)

    def _journal(self, record: dict) -> None:
        """Record one index mutation — buffered inside a batch."""
        if self._defer_journal:
            self._pending_records.append(record)
        else:
            self._append_records([record])

    def _append_records(self, records: List[dict]) -> None:
        """Append journal records in one write, then maybe compact.

        Records are encoded by the preformatted JSONL writer
        (:mod:`repro.ckpt.jsonl`) — same on-disk format, none of
        ``json.dumps``'s generic-encoder overhead on the put path.
        """
        text = "".join(map(jsonl.encode_record, records))
        with open(self._journal_path, "a", encoding="utf-8") as handle:
            if self.fault_hook is not None and len(text) > 1:
                # Crash-injection seam: split the append so a hook can
                # model a torn line (partial bytes durable, then death).
                half = len(text) // 2
                handle.write(text[:half])
                handle.flush()
                self._fault("journal:mid-append")
                handle.write(text[half:])
            else:
                handle.write(text)
        self.journal_records += len(records)
        self.journal_appends += len(records)
        self._fault("journal:appended")
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        threshold = max(
            self.compact_min_records,
            self.compact_garbage_ratio * max(len(self._index), 1),
        )
        if self.journal_records < threshold:
            return
        tmp = self._journal_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            for key in sorted(self._index):
                meta = self._index[key]
                handle.write(jsonl.put_line(
                    key, int(meta["stamp"]), int(meta["nbytes"]),
                    gen=int(meta.get("gen", 0)),
                ))
        self._fault("compact:tmp-written")
        os.replace(tmp, self._journal_path)
        self.journal_records = len(self._index)
        self.compactions += 1

    # -- layout ---------------------------------------------------------
    def _shard_of(self, key: str) -> str:
        digest = hashlib.sha1(key.encode("utf-8")).hexdigest()
        return os.path.join(self._shards_dir, digest[: self.shard_width])

    def _path(self, key: str, stamp: int, gen: int = 0) -> str:
        """Versioned payload path — pure computation, no side effects.

        ``gen`` disambiguates successive writes of the *same* key at the
        *same* stamp: without it, such an overwrite would replace the
        referenced payload in place, reopening the torn-overwrite window
        the stamp-versioned names exist to close.

        The version suffix is joined with ``@`` — a character
        :func:`escape_key` never emits — so distinct ``(key, stamp,
        gen)`` triples can never compose to the same file name (a ``.``
        separator would let ``k`` at stamp 5/gen 3 collide with key
        ``k.5`` at stamp 3).
        """
        suffix = f"@{stamp}.bin" if gen == 0 else f"@{stamp}.{gen}.bin"
        return os.path.join(self._shard_of(key), escape_key(key) + suffix)

    def _ensure_shard_dir(self, path: str) -> None:
        shard = os.path.dirname(path)
        if shard not in self._shard_dirs_made:
            os.makedirs(shard, exist_ok=True)
            self._shard_dirs_made.add(shard)

    def _write_payload(self, path: str, payload) -> None:
        """Atomic payload replace: a torn write never clobbers any
        version a journal record can reference.  Frame ropes go out in
        one buffered ``writelines`` — no concatenation."""
        self._ensure_shard_dir(path)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            write_payload(handle, payload)
        self._fault("payload:tmp-written")
        os.replace(tmp, path)

    def _unlink_after_journal(self, path: str) -> None:
        """Remove a no-longer-referenced payload file.

        Deferred inside a batch: the file must survive until the journal
        records that stop referencing it are durable, or a crash would
        leave the index pointing at a deleted payload.
        """
        if self._defer_journal:
            self._pending_unlinks.append(path)
            return
        if os.path.exists(path):
            os.remove(path)

    def _payload_path(self, key: str, meta: Dict[str, int]) -> str:
        """The payload file an index record references."""
        return self._path(key, int(meta["stamp"]), int(meta.get("gen", 0)))

    # -- backend contract -----------------------------------------------
    def _write(self, key: str, payload, stamp: int, node) -> None:
        old_meta = self._index.get(key)
        gen = 0
        if old_meta is not None and int(old_meta["stamp"]) == stamp:
            # Same-key same-stamp overwrite: bump the generation so the
            # new payload lands in a fresh file and the journaled old
            # version survives a crash before the new record is durable.
            gen = int(old_meta.get("gen", 0)) + 1
        self._write_payload(self._path(key, stamp, gen), payload)
        self._fault("payload:durable")
        self._index[key] = {"stamp": stamp, "nbytes": len(payload), "gen": gen}
        record = {"op": "put", "key": key, "stamp": stamp, "nbytes": len(payload)}
        if gen:
            record["gen"] = gen
        self._journal(record)
        if old_meta is not None:
            self._unlink_after_journal(self._payload_path(key, old_meta))

    def _finish_batch(self, crashed: bool = False) -> None:
        """Flush deferred journal records, then deferred file unlinks.

        ``crashed`` models a process death mid-batch (the crash-injection
        suite's :class:`CrashInjected`): a dead process appends nothing
        and unlinks nothing, so the deferred work is *discarded* — the
        reopened store must see only what was durable at the fault
        point (orphan payload files, the old journal).
        """
        records, self._pending_records = self._pending_records, []
        unlinks, self._pending_unlinks = self._pending_unlinks, []
        self._defer_journal = False
        if crashed:
            return
        if records:
            self._append_records(records)
        for path in unlinks:
            if os.path.exists(path):
                os.remove(path)

    def put_many_serialized(self, items) -> List[int]:
        """Batched puts: one journal append for the whole batch.

        Routes through ``put_serialized`` (and thus the ``_write`` hook,
        so subclasses see every entry) with journaling deferred.  If an
        item fails mid-batch, the records of the completed prefix are
        still appended before the error propagates — the journal never
        lags payloads that were already written.  Superseded payload
        files are unlinked only after the batch's records are durable.
        """
        self._defer_journal = True
        try:
            sizes = [self.put_serialized(key, payload, stamp, node)
                     for key, payload, stamp, node in items]
        except BaseException as exc:
            self._finish_batch(crashed=isinstance(exc, CrashInjected))
            raise
        self._finish_batch()
        return sizes

    def _read(self, key: str) -> bytes:
        if key not in self._index:
            raise KVStoreError(key)
        try:
            with open(self._payload_path(key, self._index[key]), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            raise KVStoreError(key) from None

    def stamp_of(self, key: str) -> int:
        if key not in self._index:
            raise KVStoreError(key)
        return int(self._index[key]["stamp"])

    def nbytes_of(self, key: str) -> int:
        if key not in self._index:
            raise KVStoreError(key)
        return int(self._index[key]["nbytes"])

    def has(self, key: str) -> bool:
        return key in self._index

    def keys(self) -> List[str]:
        return sorted(self._index)

    def total_bytes(self) -> int:
        return sum(int(meta["nbytes"]) for meta in self._index.values())

    def delete(self, key: str) -> None:
        if key not in self._index:
            raise KVStoreError(key)
        # Tombstone first: a crash after the journal append merely
        # leaks an orphan payload file (invisible to the index), while
        # the reverse order would leave a journal that still indexes a
        # key whose payload is gone.
        old_meta = self._index.pop(key)
        self._journal({"op": "del", "key": key})
        self._unlink_after_journal(self._payload_path(key, old_meta))

    def delete_many(self, keys) -> None:
        """Batched deletes: one journal append for all tombstones."""
        self._defer_journal = True
        try:
            for key in keys:
                self.delete(key)
        except BaseException as exc:
            self._finish_batch(crashed=isinstance(exc, CrashInjected))
            raise
        self._finish_batch()
