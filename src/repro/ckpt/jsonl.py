"""The append-only JSONL journal and its preformatted record writers.

:class:`JsonlJournal` is the journal the dedup store (refs, manifests)
and the tiered backend (upload claims, movement history) share:
torn-tail truncation on replay, crash seams around every append, and
atomic compaction.

Every persist-tier put appends at least one journal record (the sharded
store's index line; the dedup store's incref + manifest + decref), so
record encoding sits squarely on the save path.  ``json.dumps`` on a
small dict costs several microseconds of generic-encoder overhead; the
builders here emit the exact same information as f-string assembly
(~4-5x faster on the record shapes the journals write) while remaining
**plain JSON** — replay keeps using ``json.loads`` and the on-disk
format is unchanged.

Strings take a fast path only when provably safe to embed verbatim
(printable ASCII with no quote/backslash — checked, not assumed);
anything else falls back to ``json.dumps`` for that string.  Unknown
record shapes fall back to ``json.dumps`` wholesale, so the journals
accept arbitrary records at the slow path's speed rather than
corrupting them.
"""

from __future__ import annotations

import json
import os
import re
from typing import Callable, List, Mapping, Optional, Sequence

from ..obs.metrics import get_registry
from ..obs.trace import span as _span

# Anything outside printable ASCII, plus the two characters JSON strings
# must escape (" and \).  One regex scan decides the fast path.
_NEEDS_ESCAPE = re.compile(r'[^ !#-\[\]-~]')


def json_string(text: str) -> str:
    """Encode one JSON string, fast-pathing escape-free ASCII."""
    if not _NEEDS_ESCAPE.search(text):
        return f'"{text}"'
    return json.dumps(text)


def _is_clean_address(value: object) -> bool:
    """True for strings safe to embed verbatim without scanning each
    character class — hex digests and other [0-9a-zA-Z] addresses."""
    return isinstance(value, str) and value.isascii() and value.isalnum()


def put_line(
    key: str,
    stamp: int,
    nbytes: int,
    gen: int = 0,
    chunks: Optional[Sequence[str]] = None,
) -> str:
    """One ``{"op": "put", ...}`` journal line (newline included).

    ``gen`` is emitted only when non-zero and ``chunks`` only when given
    — matching the records the sharded and dedup stores have always
    written, so old journals and new replay bytes interchangeably.
    Chunk digests are hashlib hexdigests (verified clean by the caller
    dispatch); arbitrary chunk lists must go through ``json.dumps``.
    """
    line = f'{{"op": "put", "key": {json_string(key)}, "stamp": {stamp}, "nbytes": {nbytes}'
    if gen:
        line += f', "gen": {gen}'
    if chunks is not None:
        if chunks:
            line += ', "chunks": ["' + '", "'.join(chunks) + '"]'
        else:
            line += ', "chunks": []'
    return line + "}\n"


def del_line(key: str) -> str:
    """One ``{"op": "del", ...}`` tombstone line."""
    return f'{{"op": "del", "key": {json_string(key)}}}\n'


def ref_line(inc: Mapping[str, int], dec: Mapping[str, int]) -> str:
    """One refcount-journal line; empty maps are omitted entirely."""
    parts = ['{"op": "ref"']
    for name, counts in (("inc", inc), ("dec", dec)):
        if counts:
            body = ", ".join(
                f'"{digest}": {count}' for digest, count in counts.items()
            )
            parts.append(f', "{name}": {{{body}}}')
    parts.append("}\n")
    return "".join(parts)


def _fast_put(record: Mapping[str, object]) -> Optional[str]:
    key = record.get("key")
    stamp = record.get("stamp")
    nbytes = record.get("nbytes")
    gen = record.get("gen", 0)
    chunks = record.get("chunks")
    if not isinstance(key, str):
        return None
    if "gen" in record and gen == 0:
        # put_line omits a zero gen; json.dumps would keep the explicit
        # key, so this shape must take the fallback to stay equivalent.
        return None
    for value in (stamp, nbytes, gen):
        if type(value) is not int:
            return None
    if chunks is not None:
        if not isinstance(chunks, (list, tuple)) or not all(
            _is_clean_address(chunk) for chunk in chunks
        ):
            return None
    expected = 4 + ("gen" in record) + (chunks is not None)
    if len(record) != expected:
        return None
    return put_line(key, stamp, nbytes, gen=gen, chunks=chunks)


def _fast_del(record: Mapping[str, object]) -> Optional[str]:
    key = record.get("key")
    if len(record) != 2 or not isinstance(key, str):
        return None
    return del_line(key)


def _fast_ref(record: Mapping[str, object]) -> Optional[str]:
    inc = record.get("inc", {})
    dec = record.get("dec", {})
    if len(record) != 1 + ("inc" in record) + ("dec" in record):
        return None
    if ("inc" in record and not inc) or ("dec" in record and not dec):
        # ref_line omits empty maps; an explicit empty map must fall
        # back so the emitted JSON matches json.dumps key-for-key.
        return None
    for counts in (inc, dec):
        if not isinstance(counts, Mapping):
            return None
        for digest, count in counts.items():
            if not _is_clean_address(digest) or type(count) is not int:
                return None
    return ref_line(inc, dec)


def encode_record(record: Mapping[str, object]) -> str:
    """Encode one journal record to its JSONL line.

    Dispatches the three record shapes the stores write to the
    preformatted builders; anything else (or any field that fails the
    safety checks) is encoded by ``json.dumps`` — equivalence with
    which is pinned by a property test.
    """
    op = record.get("op")
    line = None
    if op == "put":
        line = _fast_put(record)
    elif op == "del":
        line = _fast_del(record)
    elif op == "ref":
        line = _fast_ref(record)
    if line is None:
        line = json.dumps(record) + "\n"
    return line


# Journal instruments on the process-wide registry, labeled per journal
# ("refs"/"manifest"/"tier") so the shared JsonlJournal accounts each
# owner separately.
_JOURNAL_APPENDS = get_registry().counter(
    "moc_journal_appends_total",
    "Journal append calls (batches, not records)",
    labelnames=("journal",),
)
_JOURNAL_RECORDS = get_registry().counter(
    "moc_journal_records_total",
    "Records appended to a journal",
    labelnames=("journal",),
)
_JOURNAL_COMPACTIONS = get_registry().counter(
    "moc_journal_compactions_total",
    "Journal rewrite (compaction) passes",
    labelnames=("journal",),
)


class JsonlJournal:
    """Append-only JSONL journal (dedup refs and manifests, tiered claims).

    Replay truncates a torn tail (a final line without its newline, or
    one that fails to parse) exactly like the sharded store's index
    journal, so acknowledged appends always survive the *next* replay
    too.  ``fault`` is the owner's crash-injection seam; the journal
    emits ``<name>:mid-append`` (torn-line window) and
    ``<name>:appended`` points.
    """

    def __init__(self, path: str, name: str, fault: Callable[[str], None]) -> None:
        self.path = path
        self.name = name
        self._fault = fault
        self.records = 0  # records currently in the file
        self.appends = 0  # records appended by this instance

    def replay(self) -> List[dict]:
        if not os.path.exists(self.path):
            return []
        out: List[dict] = []
        valid_bytes = 0
        with open(self.path, "rb") as handle:
            for line in handle:
                if not line.endswith(b"\n"):
                    break
                try:
                    record = json.loads(line.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    break
                valid_bytes += len(line)
                out.append(record)
        if valid_bytes < os.path.getsize(self.path):
            os.truncate(self.path, valid_bytes)
        self.records = len(out)
        return out

    def append(self, records: Sequence[dict]) -> None:
        if not records:
            return
        with _span("journal-append", journal=self.name, records=len(records)):
            text = "".join(map(encode_record, records))
            with open(self.path, "a", encoding="utf-8") as handle:
                if len(text) > 1:
                    # Crash seam: a hook may die between the halves,
                    # leaving a torn line for replay to truncate.
                    half = len(text) // 2
                    handle.write(text[:half])
                    handle.flush()
                    self._fault(f"{self.name}:mid-append")
                    handle.write(text[half:])
                else:  # pragma: no cover - single-byte record never occurs
                    handle.write(text)
        self.records += len(records)
        self.appends += len(records)
        _JOURNAL_APPENDS.labels(journal=self.name).inc()
        _JOURNAL_RECORDS.labels(journal=self.name).inc(len(records))
        self._fault(f"{self.name}:appended")

    def rewrite(self, records: Sequence[dict]) -> None:
        """Atomically compact the journal down to ``records``."""
        with _span("journal-compact", journal=self.name, records=len(records)):
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(encode_record(record))
            self._fault(f"{self.name}:compact-tmp-written")
            os.replace(tmp, self.path)
        _JOURNAL_COMPACTIONS.labels(journal=self.name).inc()
        self.records = len(records)
