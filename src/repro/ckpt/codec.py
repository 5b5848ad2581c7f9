"""Precision and chunk codecs for checkpoint entries.

The paper's conclusion calls for further algorithm-system co-design on
checkpoint efficiency; an orthogonal lever to PEC is *precision*: Adam
moments tolerate lower precision than master weights, so a checkpoint
can downcast selected fields on save and upcast on load, trading a
bounded perturbation for bytes — exactly the trade PEC makes with
staleness.

:class:`PrecisionCodec` maps entry fields to storage dtypes (for
example ``{"m": float16, "v": float16, "master": float32}``) and
round-trips entries through them.  Integer fields pass through
unchanged.  The codec composes with any KV store since stores operate
on entries.

:class:`ChunkCodec` is the second, byte-level tier: lossless
compression applied per *chunk* at the dedup store's chunk boundary.
Chunks stay content-addressed by their **uncompressed** SHA-256 digest
(so dedup ratios are untouched by the codec choice); only the on-disk
representation shrinks.  zstd is preferred when the optional
``zstandard`` module is importable, ``lz4`` next; the always-available
fallback is stdlib ``zlib``, so tier-1 never gains a hard dependency.
All three accept a *raw content dictionary* (``zlib``'s ``zdict``;
zstd consumes the same bytes as a raw-content dict), and
:func:`train_dictionary` builds one from sampled chunks of the dedup
corpus with a deterministic stdlib n-gram trainer.

Encoded chunk files carry a tiny self-describing frame (codec tag,
optional dictionary digest, raw length) so ``fsck`` and restore can
decode any chunk regardless of the codec the store is currently
configured with.  Chunks of at least :data:`PLANE_MIN_BYTES` are
framed as **byte planes**: checkpoint chunks are fp64 arrays, and
nearly all their redundancy sits in one or two of the eight bytes of
each value (the sign/exponent byte), so the frame splits a chunk into
its 8 byte planes and sends only the planes whose estimated order-0
entropy is under :data:`PLANE_ENTROPY_GATE` through the codec; the
others are stored raw.  Shorter chunks keep the plain frame, and plain
frames written before byte planes existed decode unchanged.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import warnings
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .serializer import Frame, entry_nbytes

#: Sensible default: fp32 master, fp16 moments, fp16 weights.
DEFAULT_FIELD_DTYPES: Dict[str, np.dtype] = {
    "master": np.dtype(np.float32),
    "m": np.dtype(np.float16),
    "v": np.dtype(np.float16),
    "weights": np.dtype(np.float16),
}


@dataclass
class CodecStats:
    """Byte accounting across a codec's lifetime.

    For a :class:`ChunkCodec` the counters cover the bytes fed to the
    compressor and what it returned: a byte-plane frame feeds it only
    the planes that pass the entropy gate, so ``ratio`` is the
    compressor's ratio on those planes, not the chunk-level ratio
    (which ``PipelineMeters.count_compressed`` records per chunk).

    :meth:`add` is safe to call from several threads at once (the dedup
    store encodes chunks on scheduler threads).
    """

    raw_bytes: int = 0
    encoded_bytes: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, raw_bytes: int, encoded_bytes: int) -> None:
        with self._lock:
            self.raw_bytes += raw_bytes
            self.encoded_bytes += encoded_bytes

    @property
    def ratio(self) -> float:
        return self.encoded_bytes / self.raw_bytes if self.raw_bytes else 1.0


class PrecisionCodec:
    """Downcast configured float fields on encode; upcast on decode.

    Fields not present in ``field_dtypes`` — and all non-float fields —
    pass through untouched.  Decoding restores ``work_dtype``
    (float64, the substrate's compute dtype) so training code never sees
    reduced precision types.
    """

    def __init__(
        self,
        field_dtypes: Optional[Mapping[str, np.dtype]] = None,
        work_dtype: np.dtype = np.dtype(np.float64),
    ) -> None:
        self.field_dtypes = dict(field_dtypes if field_dtypes is not None else DEFAULT_FIELD_DTYPES)
        for name, dtype in self.field_dtypes.items():
            if np.dtype(dtype).kind != "f":
                raise ValueError(f"field {name!r}: storage dtype must be floating")
        self.work_dtype = np.dtype(work_dtype)
        self.stats = CodecStats()

    def encode(self, entry: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Return a copy of ``entry`` with configured fields downcast."""
        encoded: Dict[str, np.ndarray] = {}
        for name, value in entry.items():
            array = np.asarray(value)
            target = self.field_dtypes.get(name)
            if target is not None and array.dtype.kind == "f":
                array = self._safe_downcast(array, np.dtype(target))
            encoded[name] = array
        self.stats.add(entry_nbytes(entry), entry_nbytes(encoded))
        return encoded

    def decode(self, entry: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Upcast float fields back to the working dtype."""
        decoded: Dict[str, np.ndarray] = {}
        for name, value in entry.items():
            array = np.asarray(value)
            if array.dtype.kind == "f" and array.dtype != self.work_dtype:
                array = array.astype(self.work_dtype)
            decoded[name] = array
        return decoded

    @staticmethod
    def _safe_downcast(array: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """Downcast with clipping to the target dtype's finite range.

        Without clipping, values beyond float16's ~65k range would become
        inf and poison the optimizer on restore.
        """
        info = np.finfo(dtype)
        return np.clip(array, info.min, info.max).astype(dtype)

    def max_relative_error(self) -> float:
        """Worst-case relative rounding error of the narrowest dtype."""
        narrowest = min(
            (np.dtype(d) for d in self.field_dtypes.values()),
            key=lambda d: np.finfo(d).nmant,
        )
        return 2.0 ** (-np.finfo(narrowest).nmant - 1)


# ---------------------------------------------------------------------------
# Chunk codecs: lossless per-chunk compression at the dedup boundary.
# ---------------------------------------------------------------------------

#: File-name suffix for encoded chunk files in the dedup object store
#: (``objects/<hh>/<digest>.z``).  The digest in the name is always the
#: digest of the *uncompressed* chunk.
ENCODED_CHUNK_SUFFIX = ".z"

#: One-byte codec tags used in the encoded-chunk frame header.  Tags are
#: append-only: a store written with any codec must stay readable.
CODEC_TAGS: Dict[str, int] = {"zlib": 1, "zstd": 2, "lz4": 3}
_TAG_NAMES: Dict[int, str] = {tag: name for name, tag in CODEC_TAGS.items()}

#: Chunks smaller than this are never worth the frame overhead.
_MIN_ENCODE_BYTES = 64


class ChunkCodecError(ValueError):
    """Raised for malformed encoded-chunk frames or decode failures."""


class CodecUnavailable(RuntimeError):
    """Requested codec's optional module is not importable."""


def _module_available(name: str) -> bool:
    try:
        __import__(name)
        return True
    except ImportError:
        return False


def dictionary_digest(dictionary: bytes) -> str:
    """Content address of a trained dictionary (SHA-256 hex)."""
    return hashlib.sha256(dictionary).hexdigest()


class ChunkCodec:
    """Base class: lossless per-chunk compression with streaming encode.

    ``encode_parts`` consumes a chunk as the zero-copy buffer parts the
    save pipeline already has (:meth:`PayloadFrames.chunk_slices`) — the
    codec streams them through its compressor, so compression adds **no
    staging copy** (a byte-plane frame feeds it planes, and the plane
    transpose is that frame's only copy; see :func:`encode_chunk_file`).
    ``decode`` inverts a full encoded payload (the frame body, without
    the header — see :func:`encode_chunk_file` /
    :func:`decode_chunk_file` for the framed form).

    Subclasses set ``name``/``tag`` and implement ``_compressor`` /
    ``_decompressor`` returning zlib-like streaming objects.
    """

    name = "none"
    tag = 0

    def __init__(self, level: Optional[int] = None, dictionary: Optional[bytes] = None) -> None:
        self.level = level
        self.dictionary = bytes(dictionary) if dictionary else None
        self.dict_digest = dictionary_digest(self.dictionary) if self.dictionary else None
        self.stats = CodecStats()

    # -- streaming primitives (overridden per codec) --------------------
    def _compressor(self):
        raise NotImplementedError

    def _decompressor(self):
        raise NotImplementedError

    # -- public API -----------------------------------------------------
    def encode_parts(self, parts: Sequence[Frame]) -> bytes:
        """Compress a chunk given as buffer parts (no concatenation)."""
        comp = self._compressor()
        out: List[bytes] = [comp.compress(part) for part in parts]
        out.append(comp.flush())
        encoded = b"".join(out)
        self.stats.add(sum(len(part) for part in parts), len(encoded))
        return encoded

    def encode(self, data: Union[bytes, memoryview]) -> bytes:
        return self.encode_parts([data])

    def decode(self, data: Union[bytes, memoryview]) -> bytes:
        decomp = self._decompressor()
        raw = decomp.decompress(bytes(data))
        tail = getattr(decomp, "flush", lambda: b"")()
        return raw + tail if tail else raw


class ZlibChunkCodec(ChunkCodec):
    """stdlib fallback codec — always available, dictionary-capable."""

    name = "zlib"
    tag = CODEC_TAGS["zlib"]

    #: Level 1 keeps the codec on the save hot path: ~5x faster than the
    #: zlib default at a modest ratio cost, and the ratio gap narrows
    #: further with a trained dictionary.
    DEFAULT_LEVEL = 1

    def __init__(self, level: Optional[int] = None, dictionary: Optional[bytes] = None) -> None:
        super().__init__(self.DEFAULT_LEVEL if level is None else level, dictionary)

    def _compressor(self):
        if self.dictionary:
            return zlib.compressobj(self.level, zlib.DEFLATED, zlib.MAX_WBITS,
                                    zlib.DEF_MEM_LEVEL, zlib.Z_DEFAULT_STRATEGY,
                                    self.dictionary)
        return zlib.compressobj(self.level)

    def _decompressor(self):
        if self.dictionary:
            return zlib.decompressobj(zlib.MAX_WBITS, self.dictionary)
        return zlib.decompressobj()


class ZstdChunkCodec(ChunkCodec):
    """zstd codec (preferred) — requires the optional ``zstandard`` module."""

    name = "zstd"
    tag = CODEC_TAGS["zstd"]
    DEFAULT_LEVEL = 3

    def __init__(self, level: Optional[int] = None, dictionary: Optional[bytes] = None) -> None:
        if not _module_available("zstandard"):
            raise CodecUnavailable("zstandard module not installed")
        super().__init__(self.DEFAULT_LEVEL if level is None else level, dictionary)
        import zstandard

        self._zstandard = zstandard
        # A raw-content dictionary: the same bytes zlib uses as zdict.
        self._dict = (
            zstandard.ZstdCompressionDict(self.dictionary) if self.dictionary else None
        )

    def _compressor(self):
        kwargs = {"level": self.level}
        if self._dict is not None:
            kwargs["dict_data"] = self._dict
        return self._zstandard.ZstdCompressor(**kwargs).compressobj()

    def _decompressor(self):
        kwargs = {}
        if self._dict is not None:
            kwargs["dict_data"] = self._dict
        return self._zstandard.ZstdDecompressor(**kwargs).decompressobj()

    def decode(self, data: Union[bytes, memoryview]) -> bytes:
        decomp = self._decompressor()
        return decomp.decompress(bytes(data))


class LZ4ChunkCodec(ChunkCodec):
    """lz4 frame codec — requires the optional ``lz4`` module."""

    name = "lz4"
    tag = CODEC_TAGS["lz4"]
    DEFAULT_LEVEL = 0

    def __init__(self, level: Optional[int] = None, dictionary: Optional[bytes] = None) -> None:
        if not _module_available("lz4.frame"):
            raise CodecUnavailable("lz4 module not installed")
        # lz4.frame has no streaming-dictionary API; dictionaries are a
        # zlib/zstd feature.  Accept and ignore with a warning so codec
        # specs stay interchangeable.
        if dictionary:
            warnings.warn("lz4 codec does not support dictionaries; ignoring",
                          RuntimeWarning, stacklevel=2)
        super().__init__(self.DEFAULT_LEVEL if level is None else level, None)
        import lz4.frame

        self._lz4 = lz4.frame

    def encode_parts(self, parts: Sequence[Frame]) -> bytes:
        comp = self._lz4.LZ4FrameCompressor(compression_level=self.level)
        out = [comp.begin()]
        out.extend(comp.compress(bytes(part)) for part in parts)
        out.append(comp.flush())
        encoded = b"".join(out)
        self.stats.add(sum(len(part) for part in parts), len(encoded))
        return encoded

    def decode(self, data: Union[bytes, memoryview]) -> bytes:
        return self._lz4.decompress(bytes(data))


def available_chunk_codecs() -> List[str]:
    """Names accepted by :func:`make_chunk_codec` on this interpreter."""
    names = ["none", "zlib"]
    if _module_available("zstandard"):
        names.append("zstd")
    if _module_available("lz4.frame"):
        names.append("lz4")
    names.append("auto")
    return names


def make_chunk_codec(
    name: Optional[str],
    level: Optional[int] = None,
    dictionary: Optional[bytes] = None,
) -> Optional[ChunkCodec]:
    """Build a chunk codec by name, degrading gracefully.

    ``None``/``"none"`` → no codec.  ``"auto"`` picks the best codec
    present (zstd > lz4 > zlib) silently.  Asking for ``"zstd"`` or
    ``"lz4"`` on a box without the optional module falls back to the
    stdlib ``zlib`` codec with a :class:`RuntimeWarning` instead of
    failing — tier-1 must stay green with no compression deps installed.
    """
    if name is None or name == "none":
        return None
    if name == "auto":
        for cls in (ZstdChunkCodec, LZ4ChunkCodec, ZlibChunkCodec):
            try:
                return cls(level, dictionary)
            except CodecUnavailable:
                continue
        raise AssertionError("zlib codec is always available")
    if name == "zlib":
        return ZlibChunkCodec(level, dictionary)
    if name in ("zstd", "lz4"):
        cls = ZstdChunkCodec if name == "zstd" else LZ4ChunkCodec
        try:
            return cls(level, dictionary)
        except CodecUnavailable:
            warnings.warn(
                f"chunk codec {name!r} unavailable (optional module not "
                f"installed); falling back to zlib",
                RuntimeWarning,
                stacklevel=2,
            )
            return ZlibChunkCodec(None, dictionary)
    raise ValueError(f"unknown chunk codec {name!r}")


# -- encoded-chunk framing --------------------------------------------------
#
# File body of an ``objects/<hh>/<digest>.z`` chunk:
#
#   u8 codec tag | u8 flags (bit0: has dictionary, bit1: byte planes)
#   [32-byte dictionary SHA-256, iff bit0]
#   u64 raw (uncompressed) length, little-endian
#   plain frame (bit1 clear): the compressed chunk
#   plane frame (bit1 set):
#     u8 plane mask (bit p set: plane p is compressed)
#     for each set bit, in ascending p: u32 length | compressed plane p
#     every other plane, in ascending p, raw (raw length // 8 bytes each)
#     the chunk's last raw length % 8 bytes, raw
#
# Plane p holds byte p of every 8-byte word of the chunk (chunk bytes
# p, p + 8, p + 16, ...).  The digest in the *file name* is the digest
# of the uncompressed chunk — content addressing is codec-independent
# by construction.

_FRAME_HEAD = struct.Struct("<BB")
_FRAME_LEN = struct.Struct("<Q")
_PLANE_LEN = struct.Struct("<I")
_FLAG_DICTIONARY = 1
_FLAG_PLANES = 2

#: Bytes per word of the byte-plane split (checkpoint arrays are fp64).
_PLANES = 8

#: Words sampled per chunk for the entropy estimate, spread evenly over
#: the chunk: a uniform-noise plane then estimates at 7.59 bits on
#: average (7.48 at the lowest of 2000 draws), well clear of the gate,
#: and the estimate stays a few small numpy calls — it holds the GIL,
#: unlike the compressor.
_GATE_SAMPLE_WORDS = 512

#: Chunks shorter than this keep the plain frame.  It is the shortest
#: chunk with :data:`_GATE_SAMPLE_WORDS` words: with fewer samples a
#: noise plane's estimate falls toward the gate (at most ``log2(n)``
#: bits for ``n`` samples), and on the short tail chunks of real fp64
#: entries a plane frame took 4x the encode time of a plain frame for
#: 1.4% fewer stored bytes (DESIGN.md, "Byte-plane frames").
PLANE_MIN_BYTES = _GATE_SAMPLE_WORDS * _PLANES

#: A plane goes through the codec only when its estimated order-0
#: entropy is below this many bits per byte.  On fp64 checkpoint chunks
#: the sign/high-exponent plane sits near 1 bit, the next plane near
#: 6.4, and the six mantissa planes at 7.9 or more — there a compressor
#: spends most of its time for under 1% of the bytes.
PLANE_ENTROPY_GATE = 7.0

#: Offsets that give each plane its own 256-bin range in one bincount.
_PLANE_BINS = np.arange(_PLANES, dtype=np.intp)[:, None] * 256

#: ``c * log2(c)`` for every count a sampled plane byte can reach.
_XLOG2X = np.array([c * np.log2(c) if c else 0.0 for c in range(_GATE_SAMPLE_WORDS + 1)])

#: A plane is under the gate when its ``sum(c log2 c)`` exceeds this:
#: with ``n`` samples the entropy is ``log2(n) - sum(c log2 c) / n``.
_GATE_MIN_ORDER = _GATE_SAMPLE_WORDS * (np.log2(_GATE_SAMPLE_WORDS) - PLANE_ENTROPY_GATE)


def _byte_planes(parts: Sequence[Frame], raw_len: int) -> Tuple[np.ndarray, np.ndarray]:
    """A chunk's ``(8, raw_len // 8)`` byte planes (row p holds chunk
    bytes p, p + 8, ...) and its ``raw_len % 8``-byte tail.

    A chunk in several parts (a window across tensor frames) is copied
    part by part straight into the planes, never joined first, so the
    split is the only copy the frame makes.
    """
    words = raw_len // _PLANES
    cut = words * _PLANES
    if len(parts) == 1:
        flat = np.frombuffer(parts[0], np.uint8)
        return flat[:cut].reshape(words, _PLANES).T.copy(), flat[cut:]
    planes = np.empty((_PLANES, words), np.uint8)
    tail = np.empty(raw_len - cut, np.uint8)
    start = 0
    for part in parts:
        flat = np.frombuffer(part, np.uint8)
        end = start + len(flat)
        for plane in range(_PLANES):
            first = (plane - start) % _PLANES
            run = flat[first:max(cut - start, 0):_PLANES]
            word = (start + first) // _PLANES
            planes[plane, word:word + len(run)] = run
        if end > cut:
            lo = max(start, cut)
            tail[lo - cut:end - cut] = flat[lo - start:]
        start = end
    return planes, tail


def _gate_sample(planes: np.ndarray) -> np.ndarray:
    """Exactly :data:`_GATE_SAMPLE_WORDS` evenly spaced words of
    ``planes`` (which has at least that many), as ``(8, n)``."""
    return planes[:, ::planes.shape[1] // _GATE_SAMPLE_WORDS][:, :_GATE_SAMPLE_WORDS]


def _gated_planes(planes: np.ndarray) -> List[int]:
    """Planes whose sampled order-0 entropy is under the gate.

    The test is rearranged so the only per-chunk numpy work is one add,
    one ``bincount``, one table lookup and one sum.
    """
    sample = _gate_sample(planes)
    counts = np.bincount((sample + _PLANE_BINS).ravel(), minlength=_PLANES * 256)
    order = _XLOG2X[counts.reshape(_PLANES, 256)].sum(axis=1)
    return np.flatnonzero(order > _GATE_MIN_ORDER).tolist()


@dataclass
class _Split:
    """How :func:`encode_chunk_file` frames one chunk.

    ``streams`` are the compressor inputs, each compressed as one
    stream: the chunk's parts for a plain frame (``mask`` is ``None``),
    else one gated plane each, in ascending plane order (``mask`` has
    their bits).  ``raw`` is what a plane frame stores as is after the
    compressed planes: the other planes, ascending, then the tail.
    """

    mask: Optional[int]
    streams: List[Sequence[Frame]]
    raw: List[Frame]


def _split_chunk(parts: Sequence[Frame]) -> Optional[_Split]:
    """The frame choice for a chunk, or ``None`` when it is stored raw
    without running the compressor (shorter than
    :data:`_MIN_ENCODE_BYTES`, or no byte plane under the gate)."""
    raw_len = sum(len(part) for part in parts)
    if raw_len < _MIN_ENCODE_BYTES:
        return None
    if raw_len < PLANE_MIN_BYTES:
        return _Split(None, [parts], [])
    planes, tail = _byte_planes(parts, raw_len)
    gated = _gated_planes(planes)
    if not gated:
        return None
    return _Split(
        sum(1 << plane for plane in gated),
        [[planes[plane]] for plane in gated],
        [planes[plane] for plane in range(_PLANES) if plane not in gated] + [tail],
    )


def compressor_inputs(chunk: Union[bytes, memoryview]) -> List[bytes]:
    """The bytes :func:`encode_chunk_file` feeds the codec for
    ``chunk``, one item per compressor stream.  Dictionary training
    samples these, so a dictionary is trained on what it is applied
    to."""
    split = _split_chunk([chunk])
    if split is None:
        return []
    return [b"".join(bytes(part) for part in stream) for stream in split.streams]


def encode_chunk_file(codec: ChunkCodec, parts: Sequence[Frame]) -> Optional[bytes]:
    """Frame one chunk for the object store, or ``None`` if not worth it.

    Returns the complete encoded file body, or ``None`` when the chunk
    is incompressible (framed size would not beat the raw file, or no
    byte plane passes the entropy gate) or too small to bother — the
    caller then stores the raw form.  The raw-vs-encoded decision is
    therefore per chunk, and a store may hold a mix of both.

    Chunks of at least :data:`PLANE_MIN_BYTES` get a byte-plane frame:
    one transpose splits the chunk into its 8 planes, one sampled
    ``bincount`` estimates each plane's entropy, and each plane under
    :data:`PLANE_ENTROPY_GATE` goes through one ``codec.encode_parts``
    call; the other planes and the tail are copied raw.  Shorter chunks
    stream their parts through the codec unjoined (the plain frame).
    """
    split = _split_chunk(parts)
    if split is None:
        return None
    encoded = [codec.encode_parts(stream) for stream in split.streams]
    flags = _FLAG_DICTIONARY if codec.dictionary else 0
    if split.mask is None:
        body: List[Frame] = encoded
    else:
        flags |= _FLAG_PLANES
        body = [bytes([split.mask])]
        for stream in encoded:
            body += [_PLANE_LEN.pack(len(stream)), stream]
        body += split.raw
    head = _FRAME_HEAD.pack(codec.tag, flags)
    if codec.dictionary:
        head += bytes.fromhex(codec.dict_digest)
    raw_len = sum(len(part) for part in parts)
    head += _FRAME_LEN.pack(raw_len)
    if len(head) + sum(len(part) for part in body) >= raw_len:
        return None
    return b"".join([head, *body])


def _decode_planes(codec: ChunkCodec, body: memoryview, raw_len: int) -> bytes:
    """Raw chunk bytes of a byte-plane frame body (after the raw length)."""
    words, tail_len = divmod(raw_len, _PLANES)
    if not len(body):
        raise ChunkCodecError("plane frame truncated: plane mask missing")
    mask = body[0]
    if not mask or not words:
        raise ChunkCodecError(f"bad plane mask {mask:#04x} for a {raw_len}-byte chunk")
    out = np.empty(raw_len, np.uint8)
    grid = out[:words * _PLANES].reshape(words, _PLANES)
    offset = 1
    raw_planes = []
    for plane in range(_PLANES):
        if not mask >> plane & 1:
            raw_planes.append(plane)
            continue
        if offset + _PLANE_LEN.size > len(body):
            raise ChunkCodecError(f"plane {plane} truncated: length missing")
        (size,) = _PLANE_LEN.unpack_from(body, offset)
        offset += _PLANE_LEN.size
        if offset + size > len(body):
            raise ChunkCodecError(
                f"plane {plane} truncated: {size} bytes declared, "
                f"{len(body) - offset} present"
            )
        decoded = codec.decode(body[offset:offset + size])
        offset += size
        if len(decoded) != words:
            raise ChunkCodecError(
                f"plane {plane} decodes to {len(decoded)} bytes, expected {words}"
            )
        grid[:, plane] = np.frombuffer(decoded, np.uint8)
    stored = len(raw_planes) * words
    if len(body) - offset != stored + tail_len:
        raise ChunkCodecError(
            f"plane frame length mismatch: {len(body) - offset} raw bytes after "
            f"the compressed planes, expected {stored + tail_len}"
        )
    rest = np.frombuffer(body[offset:], np.uint8)
    if raw_planes:
        grid[:, raw_planes] = rest[:stored].reshape(len(raw_planes), words).T
    out[words * _PLANES:] = rest[stored:]
    return out.tobytes()


def decode_chunk_file(
    data: Union[bytes, memoryview],
    dictionary_loader: Optional[Callable[[str], bytes]] = None,
    _codec_cache: Optional[Dict[tuple, ChunkCodec]] = None,
) -> bytes:
    """Decode an encoded chunk file body back to raw chunk bytes.

    Dispatches on the frame's codec tag — a store stays readable under a
    different configured codec than it was written with — and on its
    flags: plain and byte-plane frames both decode, so stores written
    before byte planes existed stay readable.
    ``dictionary_loader`` maps a dictionary digest to its bytes (the
    dedup store keeps trained dictionaries content-addressed next to the
    chunks); it is only consulted when the frame references one.
    ``_codec_cache`` lets hot readers reuse codec instances keyed by
    (tag, dict digest); concurrent decoders may share one (the fill is a
    single atomic ``setdefault``, and codecs build a fresh decompressor
    per call).  Every malformed frame raises :class:`ChunkCodecError`.
    """
    view = memoryview(data)
    if len(view) < _FRAME_HEAD.size + _FRAME_LEN.size:
        raise ChunkCodecError("encoded chunk truncated: header missing")
    tag, flags = _FRAME_HEAD.unpack_from(view, 0)
    if flags & ~(_FLAG_DICTIONARY | _FLAG_PLANES):
        raise ChunkCodecError(f"unknown frame flags {flags:#04x}")
    offset = _FRAME_HEAD.size
    dict_digest = None
    if flags & _FLAG_DICTIONARY:
        if len(view) < offset + 32 + _FRAME_LEN.size:
            raise ChunkCodecError("encoded chunk truncated: dictionary digest missing")
        dict_digest = bytes(view[offset:offset + 32]).hex()
        offset += 32
    (raw_len,) = _FRAME_LEN.unpack_from(view, offset)
    offset += _FRAME_LEN.size
    name = _TAG_NAMES.get(tag)
    if name is None:
        raise ChunkCodecError(f"unknown codec tag {tag}")
    key = (tag, dict_digest)
    codec = _codec_cache.get(key) if _codec_cache is not None else None
    if codec is None:
        dictionary = None
        if dict_digest is not None:
            if dictionary_loader is None:
                raise ChunkCodecError(
                    f"chunk needs dictionary {dict_digest[:16]} but no loader given"
                )
            dictionary = dictionary_loader(dict_digest)
        try:
            codec = make_chunk_codec(name, dictionary=dictionary)
        except CodecUnavailable as exc:  # pragma: no cover - env specific
            raise ChunkCodecError(f"codec {name!r} needed to read chunk: {exc}") from exc
        if _codec_cache is not None:
            codec = _codec_cache.setdefault(key, codec)
    try:
        if flags & _FLAG_PLANES:
            raw = _decode_planes(codec, view[offset:], raw_len)
        else:
            raw = codec.decode(view[offset:])
    except ChunkCodecError:
        raise
    except Exception as exc:
        raise ChunkCodecError(f"chunk decode failed ({name}): {exc}") from exc
    if len(raw) != raw_len:
        raise ChunkCodecError(
            f"chunk decode length mismatch: header says {raw_len}, got {len(raw)}"
        )
    return raw


def train_dictionary(
    samples: Sequence[Union[bytes, memoryview]],
    max_bytes: int = 16 * 1024,
    gram_bytes: int = 16,
) -> bytes:
    """Train a raw-content compression dictionary from sample chunks.

    A deterministic stdlib trainer: count fixed-size grams across the
    samples (strided to bound work), keep the highest-value grams, and
    concatenate them with the most frequent **last** — zlib resolves
    matches against later ``zdict`` positions more cheaply, and zstd
    accepts the same bytes as a raw-content dictionary, so one trained
    blob serves every codec tier.  When the ``zstandard`` module is
    present its COVER trainer is used instead (better dictionaries,
    same contract).

    Returns ``b""`` when the samples are too small to train from; the
    caller should treat that as "no dictionary".
    """
    corpus = [bytes(sample) for sample in samples if len(sample) >= gram_bytes]
    if not corpus or sum(map(len, corpus)) < 4 * gram_bytes:
        return b""
    if _module_available("zstandard"):
        import zstandard

        try:
            trained = zstandard.train_dictionary(max_bytes, corpus)
            return trained.as_bytes()
        except zstandard.ZstdError:
            pass  # tiny/degenerate corpora: fall through to the stdlib trainer
    # Bound total scanned bytes so training stays O(MB) regardless of
    # corpus size; the stride keeps coverage spread across each sample.
    budget = 2 * 1024 * 1024
    stride = max(1, (sum(map(len, corpus)) * gram_bytes) // budget)
    counts: Counter = Counter()
    for sample in corpus:
        for pos in range(0, len(sample) - gram_bytes + 1, stride):
            counts[sample[pos:pos + gram_bytes]] += 1
    repeated = [(count, gram) for gram, count in counts.items() if count > 1]
    if not repeated:
        return b""
    # Most frequent last; ties broken by gram bytes for determinism.
    repeated.sort(key=lambda item: (item[0], item[1]))
    keep = max_bytes // gram_bytes
    return b"".join(gram for _, gram in repeated[-keep:])


def roundtrip_error(entry: Mapping[str, np.ndarray], codec: PrecisionCodec) -> float:
    """Max relative error introduced by one encode/decode round trip."""
    decoded = codec.decode(codec.encode(entry))
    worst = 0.0
    for name, original in entry.items():
        original = np.asarray(original)
        if original.dtype.kind != "f":
            continue
        restored = np.asarray(decoded[name])
        denom = np.maximum(np.abs(original), 1e-12)
        worst = max(worst, float((np.abs(restored - original) / denom).max()))
    return worst
