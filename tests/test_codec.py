"""Precision codec tests (checkpoint compression extension)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt import (
    DEFAULT_FIELD_DTYPES,
    InMemoryKVStore,
    PrecisionCodec,
    roundtrip_error,
)
from repro.ckpt.serializer import entry_nbytes


def sample_entry(scale=1.0, size=64, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "master": rng.normal(0.0, scale, size),
        "m": rng.normal(0.0, scale * 0.01, size),
        "v": np.abs(rng.normal(0.0, scale * 0.001, size)),
        "step": np.asarray(7),
    }


class TestEncode:
    def test_downcasts_configured_fields(self):
        codec = PrecisionCodec()
        encoded = codec.encode(sample_entry())
        assert encoded["master"].dtype == np.float32
        assert encoded["m"].dtype == np.float16
        assert encoded["v"].dtype == np.float16

    def test_integers_pass_through(self):
        codec = PrecisionCodec()
        encoded = codec.encode(sample_entry())
        assert encoded["step"].dtype.kind in "iu"
        assert int(np.asarray(encoded["step"]).reshape(-1)[0]) == 7

    def test_unconfigured_fields_untouched(self):
        codec = PrecisionCodec(field_dtypes={"m": np.float16})
        entry = sample_entry()
        encoded = codec.encode(entry)
        assert encoded["master"].dtype == np.float64

    def test_size_reduction(self):
        codec = PrecisionCodec()
        entry = sample_entry(size=512)
        encoded = codec.encode(entry)
        assert entry_nbytes(encoded) < entry_nbytes(entry) / 2
        assert codec.stats.ratio < 0.5

    def test_overflow_clipped_not_inf(self):
        codec = PrecisionCodec(field_dtypes={"m": np.float16})
        entry = {"m": np.array([1e10, -1e10])}
        encoded = codec.encode(entry)
        assert np.isfinite(encoded["m"]).all()

    def test_non_float_storage_dtype_rejected(self):
        with pytest.raises(ValueError):
            PrecisionCodec(field_dtypes={"m": np.int32})


class TestDecode:
    def test_restores_work_dtype(self):
        codec = PrecisionCodec()
        decoded = codec.decode(codec.encode(sample_entry()))
        assert decoded["master"].dtype == np.float64
        assert decoded["m"].dtype == np.float64

    def test_roundtrip_error_bounded(self):
        codec = PrecisionCodec()
        error = roundtrip_error(sample_entry(scale=2.0), codec)
        # float16 has ~3 decimal digits: relative error below 1e-3
        assert error < 1e-3

    def test_fp32_only_codec_tighter(self):
        codec = PrecisionCodec(field_dtypes={name: np.float32 for name in ("master", "m", "v")})
        error = roundtrip_error(sample_entry(scale=2.0), codec)
        assert error < 1e-6

    def test_max_relative_error_reflects_narrowest(self):
        wide = PrecisionCodec(field_dtypes={"m": np.float32})
        narrow = PrecisionCodec(field_dtypes={"m": np.float16})
        assert narrow.max_relative_error() > wide.max_relative_error()


class TestStoreComposition:
    def test_codec_through_kvstore(self):
        codec = PrecisionCodec()
        store = InMemoryKVStore()
        entry = sample_entry(size=256)
        store.put("k", codec.encode(entry), stamp=1)
        restored = codec.decode(store.get("k"))
        assert restored["master"].dtype == np.float64
        assert np.allclose(restored["master"], entry["master"], rtol=1e-6)
        assert np.allclose(restored["m"], entry["m"], rtol=1e-3, atol=1e-6)

    def test_encoded_store_smaller(self):
        codec = PrecisionCodec()
        plain, encoded = InMemoryKVStore(), InMemoryKVStore()
        entry = sample_entry(size=1024)
        plain.put("k", entry, stamp=0)
        encoded.put("k", codec.encode(entry), stamp=0)
        assert encoded.total_bytes() < plain.total_bytes() / 2


@settings(max_examples=30, deadline=None)
@given(
    scale=st.floats(1e-2, 100.0),
    seed=st.integers(0, 200),
)
def test_property_roundtrip_error_within_dtype_bound(scale, seed):
    """For values in float16's *normal* range, round-trip error stays
    within a small multiple of the unit roundoff.  (Subnormals — values
    below ~6e-5 — have unboundedly large relative error by construction,
    which is why the default codec keeps the master copy at float32.)"""
    rng = np.random.default_rng(seed)
    magnitudes = rng.uniform(0.1 * scale, scale, 64)
    signs = rng.choice([-1.0, 1.0], 64)
    entry = {"master": magnitudes * signs, "m": magnitudes, "v": magnitudes}
    codec = PrecisionCodec()
    error = roundtrip_error(entry, codec)
    assert error <= 4 * codec.max_relative_error()


def test_subnormal_values_documented_hazard():
    """Below float16's normal range, relative error blows up — the
    reason moments (which can be tiny) default to fp16 only because the
    optimizer tolerates it, while the master stays fp32."""
    codec = PrecisionCodec(field_dtypes={"m": np.float16})
    entry = {"m": np.array([1e-7, 2e-7])}
    assert roundtrip_error(entry, codec) > 4 * codec.max_relative_error()


# ---------------------------------------------------------------------------
# Chunk codec: lossless per-chunk compression at the dedup boundary.
# ---------------------------------------------------------------------------

from repro.ckpt import (  # noqa: E402 - grouped with the tier they test
    ChunkCodecError,
    available_chunk_codecs,
    decode_chunk_file,
    encode_chunk_file,
    make_chunk_codec,
    train_dictionary,
)


def compressible_chunk(size=1024, seed=0) -> bytes:
    rng = np.random.default_rng(seed)
    body = rng.standard_normal(size // 8).copy()
    body[::3] = 0.0
    return body.tobytes()


def no_dictionary(digest):
    raise KeyError(digest)


class TestChunkCodec:
    def test_framed_roundtrip_is_exact(self):
        codec = make_chunk_codec("zlib")
        raw = compressible_chunk()
        body = encode_chunk_file(codec, [raw])
        assert body is not None and len(body) < len(raw)
        assert decode_chunk_file(body, no_dictionary) == raw

    def test_encode_parts_streams_without_concatenation(self):
        codec = make_chunk_codec("zlib")
        raw = compressible_chunk(2048)
        parts = [memoryview(raw)[:700], memoryview(raw)[700:1500],
                 memoryview(raw)[1500:]]
        body = encode_chunk_file(codec, parts)
        assert decode_chunk_file(body, no_dictionary) == raw

    def test_incompressible_chunk_returns_none(self):
        codec = make_chunk_codec("zlib")
        rng = np.random.default_rng(1)
        raw = rng.integers(0, 256, 1024, dtype=np.uint8).tobytes()
        assert encode_chunk_file(codec, [raw]) is None

    def test_tiny_chunk_not_worth_framing(self):
        codec = make_chunk_codec("zlib")
        assert encode_chunk_file(codec, [b"\x00" * 32]) is None

    def test_dictionary_roundtrip_and_loader_contract(self):
        template = compressible_chunk(512, seed=3) * 2
        samples = [template + bytes([s]) * 16 for s in range(8)]
        dictionary = train_dictionary(samples)
        assert dictionary  # corpus is rich enough
        codec = make_chunk_codec("zlib", dictionary=dictionary)
        raw = template + b"\xAA" * 16
        body = encode_chunk_file(codec, [raw])
        assert body is not None
        loaded = {}

        def loader(digest):
            loaded["digest"] = digest
            return dictionary

        assert decode_chunk_file(body, loader) == raw
        assert loaded["digest"] == codec.dict_digest
        # frames referencing a dictionary refuse to decode without one
        with pytest.raises(ChunkCodecError):
            decode_chunk_file(body, None)

    def test_unknown_tag_rejected(self):
        codec = make_chunk_codec("zlib")
        body = bytearray(encode_chunk_file(codec, [compressible_chunk()]))
        body[0] = 250  # unassigned codec tag
        with pytest.raises(ChunkCodecError):
            decode_chunk_file(bytes(body), no_dictionary)

    def test_truncated_frame_rejected(self):
        with pytest.raises(ChunkCodecError):
            decode_chunk_file(b"\x01", no_dictionary)

    def test_corrupt_payload_rejected(self):
        codec = make_chunk_codec("zlib")
        body = bytearray(encode_chunk_file(codec, [compressible_chunk()]))
        body[-1] ^= 0xFF
        with pytest.raises(ChunkCodecError):
            decode_chunk_file(bytes(body), no_dictionary)

    def test_none_names_build_no_codec(self):
        assert make_chunk_codec(None) is None
        assert make_chunk_codec("none") is None

    def test_auto_picks_something_silently(self):
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            codec = make_chunk_codec("auto")
        assert codec is not None
        assert codec.name in ("zstd", "lz4", "zlib")

    def test_missing_optional_codec_falls_back_to_zlib_with_warning(self):
        available = available_chunk_codecs()
        for name in ("zstd", "lz4"):
            if name in available:
                # module installed here: the real codec must round-trip
                codec = make_chunk_codec(name)
                raw = compressible_chunk()
                body = encode_chunk_file(codec, [raw])
                if body is not None:
                    assert decode_chunk_file(body, no_dictionary) == raw
            else:
                with pytest.warns(RuntimeWarning, match="falling back to zlib"):
                    codec = make_chunk_codec(name)
                assert codec.name == "zlib"

    def test_unknown_codec_name_rejected(self):
        with pytest.raises(ValueError):
            make_chunk_codec("snappy")

    def test_cross_codec_readability(self):
        # a frame written by any available codec decodes regardless of
        # what the reader would configure — the tag drives dispatch
        raw = compressible_chunk(4096)
        for name in available_chunk_codecs():
            if name in ("none", "auto"):
                continue
            body = encode_chunk_file(make_chunk_codec(name), [raw])
            if body is not None:
                assert decode_chunk_file(body, no_dictionary) == raw, name


class TestTrainDictionary:
    def test_deterministic(self):
        samples = [compressible_chunk(seed=s) for s in range(6)]
        assert train_dictionary(samples) == train_dictionary(samples)

    def test_thin_corpus_yields_empty(self):
        assert train_dictionary([]) == b""
        assert train_dictionary([b"tiny"]) == b""

    def test_dictionary_improves_ratio_on_templated_data(self):
        # strongly templated chunks: shared boilerplate with small diffs
        template = compressible_chunk(512, seed=3) * 2
        samples = [template + bytes([s]) * 16 for s in range(8)]
        dictionary = train_dictionary(samples)
        assert dictionary
        plain = make_chunk_codec("zlib")
        primed = make_chunk_codec("zlib", dictionary=dictionary)
        target = template + b"\xAA" * 16
        assert len(primed.encode(target)) <= len(plain.encode(target))


# ---------------------------------------------------------------------------
# Byte-plane frames: chunks of PLANE_MIN_BYTES or more are split into their
# 8 byte planes, and only the low-entropy planes go through the codec.
# ---------------------------------------------------------------------------

from repro.ckpt import DedupBackend  # noqa: E402
from repro.ckpt.codec import (  # noqa: E402
    PLANE_MIN_BYTES,
    compressor_inputs,
)

#: Every codec importable here (zstd and lz4 only where installed).
CODECS = [name for name in ("zlib", "zstd", "lz4") if name in available_chunk_codecs()]

#: Offset of the plane mask in a plane frame without a dictionary:
#: tag, flags, u64 raw length.
MASK_AT = 10

#: A plain zlib frame written before byte planes existed, for the
#: 195-byte chunk ``golden_plain_chunk()``.  Stores hold frames like it.
GOLDEN_PLAIN_FRAME = bytes.fromhex(
    "0100c3000000000000007801636040061feca13c0708cd01a505a03444948161"
    "f0a8cbcd4f0600b97c0b13"
)


def golden_plain_chunk() -> bytes:
    return (np.arange(24, dtype=np.float64) % 5).tobytes() + b"moc"


def kind_chunk(kind: str, size: int, seed: int = 0) -> bytes:
    """``size`` bytes of one entropy profile."""
    rng = np.random.default_rng(seed)
    if kind == "zeros":
        return bytes(size)
    if kind == "noise":
        return rng.integers(0, 256, size, dtype=np.uint8).tobytes()
    # fp64 values of similar magnitude: a near-constant sign/exponent
    # plane, one partly predictable plane, six noisy mantissa planes
    values = rng.normal(1.0, 0.25, size // 8 + 1)
    return values.tobytes()[:size]


def split_parts(raw: bytes, cuts) -> list:
    """``raw`` as zero-copy parts split at ``cuts``."""
    view = memoryview(raw)
    bounds = [0, *sorted(cuts), len(raw)]
    return [view[a:b] for a, b in zip(bounds, bounds[1:])]


def plane_frame(raw: bytes, codec_name: str = "zlib") -> bytes:
    body = encode_chunk_file(make_chunk_codec(codec_name), [raw])
    assert body is not None and body[1] & 2, "expected a byte-plane frame"
    return body


class TestBytePlaneFrames:
    @settings(max_examples=80, deadline=None)
    @given(
        size=st.one_of(
            st.integers(PLANE_MIN_BYTES - 20, PLANE_MIN_BYTES + 20),
            st.integers(64, 3 * PLANE_MIN_BYTES),
        ),
        kind=st.sampled_from(["zeros", "noise", "mixed"]),
        cuts=st.lists(st.integers(0, 3 * PLANE_MIN_BYTES), max_size=4),
        codec_name=st.sampled_from(CODECS),
        trained=st.booleans(),
        seed=st.integers(0, 50),
    )
    def test_roundtrip_property(self, size, kind, cuts, codec_name, trained, seed):
        raw = kind_chunk(kind, size, seed)
        dictionary = None
        if trained and codec_name != "lz4":  # lz4 takes no dictionary
            corpus = [kind_chunk("mixed", PLANE_MIN_BYTES * 2, seed + s) for s in range(4)]
            dictionary = train_dictionary(
                [x for chunk in corpus for x in compressor_inputs(chunk)]
            ) or None
        codec = make_chunk_codec(codec_name, dictionary=dictionary)
        parts = split_parts(raw, [cut for cut in cuts if cut <= size])
        body = encode_chunk_file(codec, parts)
        if kind == "noise":
            assert body is None
        if kind == "zeros" or (kind == "mixed" and size >= PLANE_MIN_BYTES):
            assert body is not None
        if body is None:
            return
        assert len(body) < size
        assert bool(body[1] & 2) == (size >= PLANE_MIN_BYTES)
        assert decode_chunk_file(body, lambda digest: dictionary) == raw
        # the parts are framed exactly like the joined chunk
        assert encode_chunk_file(codec, [raw]) == body

    def test_mixed_chunk_compresses_only_gated_planes(self):
        raw = kind_chunk("mixed", 8 * PLANE_MIN_BYTES + 5)
        codec = make_chunk_codec("zlib")
        body = encode_chunk_file(codec, [raw])
        mask = body[MASK_AT]
        fed = compressor_inputs(raw)
        assert 0 < bin(mask).count("1") == len(fed) < 8
        # the codec's stats count exactly the planes fed to it
        assert codec.stats.raw_bytes == sum(map(len, fed)) == len(fed) * (len(raw) // 8)
        assert decode_chunk_file(body, no_dictionary) == raw

    def test_chunk_without_gated_planes_is_stored_raw(self):
        codec = make_chunk_codec("zlib")
        assert encode_chunk_file(codec, [kind_chunk("noise", 4 * PLANE_MIN_BYTES)]) is None
        assert codec.stats.raw_bytes == 0  # no compressor ran
        assert compressor_inputs(kind_chunk("noise", 4 * PLANE_MIN_BYTES)) == []

    @pytest.mark.parametrize("size", [PLANE_MIN_BYTES + 8, 2 * PLANE_MIN_BYTES - 8])
    def test_noise_past_the_cut_calls_no_compressor(self, size):
        # the gate samples the same number of words at every length, so
        # a noise plane stays clear of it just past the cut too
        codec = make_chunk_codec("zlib")
        for seed in range(20):
            assert encode_chunk_file(codec, [kind_chunk("noise", size, seed)]) is None
        assert codec.stats.raw_bytes == 0

    @pytest.mark.parametrize("words", [512, 513, 700, 1023, 1024, 1537, 8192])
    def test_gate_sample_size_is_fixed(self, words):
        from repro.ckpt.codec import _gate_sample

        planes = np.arange(8 * words).reshape(8, words)
        sample = _gate_sample(planes)
        assert sample.shape == (8, PLANE_MIN_BYTES // 8)
        assert len(set(sample[0].tolist())) == sample.shape[1]  # distinct words

    def test_short_chunks_keep_the_plain_frame(self):
        raw = kind_chunk("zeros", PLANE_MIN_BYTES - 1)
        body = encode_chunk_file(make_chunk_codec("zlib"), [raw])
        assert body[1] & 2 == 0
        assert compressor_inputs(raw) == [raw]

    def test_golden_plain_frame_still_decodes(self):
        assert decode_chunk_file(GOLDEN_PLAIN_FRAME, no_dictionary) == golden_plain_chunk()
        # short chunks are still written as plain frames (the bytes of
        # the compressed body depend on the zlib build, the header not)
        body = encode_chunk_file(make_chunk_codec("zlib"), [golden_plain_chunk()])
        assert body[:10] == GOLDEN_PLAIN_FRAME[:10]

    @pytest.mark.parametrize("mask", [0x00, "extra", "missing"])
    def test_bad_plane_mask_rejected(self, mask):
        body = bytearray(plane_frame(kind_chunk("mixed", 2 * PLANE_MIN_BYTES + 3)))
        good = body[MASK_AT]
        raw_plane = next(p for p in range(8) if not good >> p & 1)
        body[MASK_AT] = {
            0x00: 0, "extra": good | 1 << raw_plane,
            "missing": good & ~(good & -good),
        }[mask]
        with pytest.raises(ChunkCodecError):
            decode_chunk_file(bytes(body), no_dictionary)

    @pytest.mark.parametrize("delta", [-1, 1, 1 << 20])
    def test_wrong_plane_length_rejected(self, delta):
        body = bytearray(plane_frame(kind_chunk("mixed", 2 * PLANE_MIN_BYTES + 3)))
        size = int.from_bytes(body[MASK_AT + 1:MASK_AT + 5], "little")
        body[MASK_AT + 1:MASK_AT + 5] = (size + delta).to_bytes(4, "little")
        with pytest.raises(ChunkCodecError):
            decode_chunk_file(bytes(body), no_dictionary)

    @pytest.mark.parametrize("keep", [MASK_AT, MASK_AT + 1, MASK_AT + 3, MASK_AT + 40, -1])
    def test_truncated_plane_rejected(self, keep):
        body = plane_frame(kind_chunk("mixed", 2 * PLANE_MIN_BYTES + 3))
        with pytest.raises(ChunkCodecError):
            decode_chunk_file(body[:keep], no_dictionary)

    def test_unknown_flag_bit_rejected(self):
        body = bytearray(plane_frame(kind_chunk("mixed", 2 * PLANE_MIN_BYTES)))
        body[1] |= 0x80
        with pytest.raises(ChunkCodecError):
            decode_chunk_file(bytes(body), no_dictionary)

    def test_fsck_reports_corrupt_plane_frame(self, tmp_path):
        store = DedupBackend(str(tmp_path), chunk_bytes=2 * PLANE_MIN_BYTES, codec="zlib")
        store.put("k", {"x": np.random.default_rng(3).normal(1.0, 0.25, 4096)}, stamp=1)
        assert store.fsck().ok
        digest = next(
            d for d in store.chunks_of("k") if store.chunks.read_chunk_stored(d)[1]
        )
        path = store.chunks._encoded_path(digest)
        with open(path, "rb") as handle:
            body = bytearray(handle.read())
        assert body[1] & 2
        body[MASK_AT] = 0
        with open(path, "wb") as handle:
            handle.write(bytes(body))
        report = store.fsck()
        assert not report.ok
        assert digest in report.corrupt_chunks

    def test_trained_dictionary_does_not_raise_physical_bytes(self, tmp_path):
        # the templated corpus above, widened past the plane cut
        template = np.frombuffer(compressible_chunk(512, seed=3) * 8, np.float64)

        def entry(seed):
            return {"x": np.concatenate([template, np.full(2, float(seed))])}

        def store_at(name):
            store = DedupBackend(str(tmp_path / name), chunk_bytes=4 * PLANE_MIN_BYTES,
                                 codec="zlib")
            for seed in range(8):
                store.put(f"k{seed}", entry(seed), stamp=1)
            return store

        plain, trained = store_at("plain"), store_at("trained")
        assert trained.train_codec_dictionary() is not None
        before = {store: store.chunks.chunk_bytes_written for store in (plain, trained)}
        for store in (plain, trained):
            for seed in range(8, 16):
                store.put(f"k{seed}", entry(seed), stamp=2)
        written = {store: store.chunks.chunk_bytes_written - before[store]
                   for store in (plain, trained)}
        assert 0 < written[trained] <= written[plain]
        for seed in range(16):
            assert np.array_equal(trained.get(f"k{seed}")["x"], entry(seed)["x"])
        assert trained.fsck().ok
