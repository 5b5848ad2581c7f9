"""Key-value checkpoint stores: the two tiers of Section 5.

The paper stores checkpointed modules as key-value pairs "for efficient
retrieval from both memory and distributed storage".  Both stores here
implement the :class:`~repro.ckpt.backend.CheckpointBackend` contract:

* :class:`InMemoryKVStore` — the CPU-memory snapshot tier.  Supports
  node-scoped clearing (a node fault wipes the snapshots that lived on
  that node).
* :class:`DiskKVStore` — the flat persistent tier, a directory of entry
  files plus a JSON index mapping keys to files and stamps.  The index
  is rewritten per put (O(n) each, O(n²) across a run) — see
  :class:`~repro.ckpt.sharded.ShardedDiskKVStore` for the journal-backed
  store that eliminates the rewrites.

Every ``put`` records an iteration *stamp*; recovery uses stamps to pick
the freshest available version of each entry and the PLT tracker uses
them to charge update loss.  Stores meter bytes written/read so the tests
and benches can assert transfer volumes exactly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .backend import CheckpointBackend, KVStoreError, escape_key
from .serializer import payload_bytes, write_payload

# Back-compat alias: the pre-backend base class name.
BaseKVStore = CheckpointBackend


@dataclass
class StoredEntry:
    """An entry version held by a store."""

    key: str
    stamp: int  # iteration number the entry was captured at
    nbytes: int
    # Nodes whose CPU memory holds a copy (memory tier only).  An expert
    # replicated across EP groups is snapshotted on every replica's node,
    # so its in-memory copy survives until ALL hosting nodes fail.
    nodes: Tuple[int, ...] = (0,)


class InMemoryKVStore(CheckpointBackend):
    """CPU-memory snapshot tier.

    Keeps only the latest version of each key (snapshots supersede).
    ``drop_node`` models a node failure losing its in-memory snapshots.
    """

    def __init__(self) -> None:
        super().__init__()
        self._data: Dict[str, bytes] = {}
        self._meta: Dict[str, StoredEntry] = {}

    def _write(self, key: str, payload, stamp: int, node) -> None:
        nodes = (node,) if isinstance(node, int) else tuple(node)
        # The memory tier *retains* the payload, so a frame rope (which
        # aliases caller arrays) or a pooled staging view (whose buffer
        # is reused) must be materialized here — the tier's one copy.
        data = payload_bytes(payload)
        self._data[key] = data
        self._meta[key] = StoredEntry(key=key, stamp=stamp, nbytes=len(data), nodes=nodes)

    def _read(self, key: str) -> bytes:
        if key not in self._data:
            raise KVStoreError(key)
        return self._data[key]

    def stamp_of(self, key: str) -> int:
        if key not in self._meta:
            raise KVStoreError(key)
        return self._meta[key].stamp

    def nbytes_of(self, key: str) -> int:
        if key not in self._meta:
            raise KVStoreError(key)
        return self._meta[key].nbytes

    def nodes_of(self, key: str) -> Tuple[int, ...]:
        if key not in self._meta:
            raise KVStoreError(key)
        return self._meta[key].nodes

    def has(self, key: str) -> bool:
        return key in self._data

    def keys(self) -> List[str]:
        return sorted(self._data)

    def total_bytes(self) -> int:
        return sum(meta.nbytes for meta in self._meta.values())

    def delete(self, key: str) -> None:
        if key not in self._data:
            raise KVStoreError(key)
        del self._data[key]
        del self._meta[key]

    def drop_node(self, node: int) -> List[str]:
        """A node fault: its memory copies vanish.

        Entries replicated on other (surviving) nodes remain readable;
        an entry is deleted only when its last hosting node fails.
        Returns the keys that became fully unavailable.
        """
        lost = []
        for key, meta in list(self._meta.items()):
            if node not in meta.nodes:
                continue
            remaining = tuple(n for n in meta.nodes if n != node)
            if remaining:
                meta.nodes = remaining
            else:
                lost.append(key)
                del self._data[key]
                del self._meta[key]
        return sorted(lost)

    def clear(self) -> None:
        self._data.clear()
        self._meta.clear()


class DiskKVStore(CheckpointBackend):
    """Flat persistent tier backed by a directory.

    Layout: ``<root>/entries/<escaped key>.bin`` plus ``<root>/index.json``
    recording stamps and sizes.  The index is rewritten on every put
    (``index_rewrites`` counts them) — atomic via os.replace, but O(n)
    per put.  ``put_many`` amortises the rewrite over the batch.
    """

    def __init__(self, root: str) -> None:
        super().__init__()
        self.root = root
        self._entries_dir = os.path.join(root, "entries")
        self._index_path = os.path.join(root, "index.json")
        os.makedirs(self._entries_dir, exist_ok=True)
        self._index: Dict[str, Dict[str, int]] = {}
        self._defer_index_flush = False
        self.index_rewrites = 0
        if os.path.exists(self._index_path):
            with open(self._index_path, "r", encoding="utf-8") as handle:
                self._index = json.load(handle)

    def _path(self, key: str) -> str:
        return os.path.join(self._entries_dir, escape_key(key) + ".bin")

    def _flush_index(self) -> None:
        tmp = self._index_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self._index, handle)
        self._fault("index:tmp-written")
        os.replace(tmp, self._index_path)
        self.index_rewrites += 1

    def _write(self, key: str, payload, stamp: int, node) -> None:
        path = self._path(key)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            write_payload(handle, payload)
        self._fault("payload:tmp-written")
        os.replace(tmp, path)
        # NB: unlike the sharded store's versioned files, an overwrite
        # here replaces the payload in place before the index flush — a
        # crash in that window leaves the new bytes under the old index
        # metadata.  The crash-injection suite pins this (weaker)
        # contract; the journal store is the hardened tier.
        self._fault("payload:durable")
        self._index[key] = {"stamp": stamp, "nbytes": len(payload)}
        if not self._defer_index_flush:
            self._flush_index()

    def put_many_serialized(self, items) -> List[int]:
        """Batched puts with a single index rewrite at the end.

        The index is flushed even when an item fails mid-batch, so the
        on-disk index never lags payload files that were already
        written.
        """
        self._defer_index_flush = True
        try:
            sizes = [self.put_serialized(key, payload, stamp, node)
                     for key, payload, stamp, node in items]
        finally:
            self._defer_index_flush = False
            if items:
                self._flush_index()
        return sizes

    def _read(self, key: str) -> bytes:
        if key not in self._index:
            raise KVStoreError(key)
        try:
            with open(self._path(key), "rb") as handle:
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
        path = self._path(key)
        if os.path.exists(path):
            os.remove(path)
        del self._index[key]
        if not self._defer_index_flush:
            self._flush_index()

    def delete_many(self, keys) -> None:
        """Batched deletes with a single index rewrite at the end."""
        self._defer_index_flush = True
        try:
            for key in keys:
                self.delete(key)
        finally:
            self._defer_index_flush = False
            if keys:
                self._flush_index()
