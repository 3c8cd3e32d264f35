"""The v1 index file: pinned writer output, and a reader that names the byte
of every format error and accepts only blobs it would write back as they are."""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastss.bench import bundled_words_path, load_dictionary
from fastss.index import Dictionary, FastSSIndex, IndexFormatError, IndexParams


def layout(blob: bytes) -> tuple[int, list[tuple[int, int, tuple[int, ...]]]]:
    """Read a v1 blob by hand: the byte offset of the key count, and each
    entry as (byte offset, key, ids)."""
    (word_count,) = struct.unpack_from("<I", blob, 11)
    pos = 15
    for _ in range(word_count):
        (length,) = struct.unpack_from("<H", blob, pos)
        pos += 2 + length
    key_count_at = pos
    (key_count,) = struct.unpack_from("<Q", blob, pos)
    pos += 8
    entries = []
    for _ in range(key_count):
        key, count = struct.unpack_from("<QI", blob, pos)
        entries.append((pos, key, struct.unpack_from(f"<{count}I", blob, pos + 12)))
        pos += 12 + 4 * count
    assert pos == len(blob)
    return key_count_at, entries


def small_blob() -> bytes:
    # "abc" and "abd" share the residual "ab", so one entry holds two ids.
    return FastSSIndex.build(Dictionary(["abc", "abd", "xyz"]), IndexParams(1)).to_bytes()


def shared_entry(blob: bytes) -> int:
    """Byte offset of the first entry with more than one id."""
    return next(pos for pos, _key, ids in layout(blob)[1] if len(ids) > 1)


def test_v1_bytes_of_bundled_list_are_pinned():
    # Digests of the files written before the posting table became flat
    # arrays: the format must not move by a single byte.
    dictionary = load_dictionary(bundled_words_path())
    for params, digest in [
        (IndexParams(2), "e6178baed22831ff916d8c3cee22856daa3e562a9d028cc05e4179047c6379fa"),
        (IndexParams(3, 7), "56cf5e0cc516ddb776e12fa3c7d33c6d286be7d2dbf3c4001f3764643c14afbd"),
    ]:
        blob = FastSSIndex.build(dictionary, params).to_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest, params


def test_word_id_out_of_range_names_its_byte():
    blob = bytearray(small_blob())
    pos, _key, _ids = layout(blob)[1][0]
    struct.pack_into("<I", blob, pos + 12, 3)  # three words: ids 0..2
    with pytest.raises(IndexFormatError, match=rf"word id 3 out of range .* at byte {pos + 12}$"):
        FastSSIndex.from_bytes(bytes(blob))


@pytest.mark.parametrize("first, second", [(1, 0), (0, 0)], ids=["descending", "repeated"])
def test_word_ids_not_ascending_name_their_byte(first, second):
    blob = bytearray(small_blob())
    pos = shared_entry(blob)
    struct.pack_into("<2I", blob, pos + 12, first, second)
    with pytest.raises(IndexFormatError, match=rf"not strictly ascending .* at byte {pos + 16}$"):
        FastSSIndex.from_bytes(bytes(blob))


@pytest.mark.parametrize("change", ["swapped", "duplicated"])
def test_keys_not_ascending_name_their_byte(change):
    blob = bytearray(small_blob())
    entries = layout(blob)[1]
    (pos0, key0, _), (pos1, key1, _) = entries[0], entries[1]
    struct.pack_into("<Q", blob, pos1, key0)
    if change == "swapped":
        struct.pack_into("<Q", blob, pos0, key1)
    with pytest.raises(IndexFormatError, match=rf"not above the previous key at byte {pos1}$"):
        FastSSIndex.from_bytes(bytes(blob))


@pytest.mark.parametrize("key_count", [2**64 - 1, 2**40])
def test_inflated_key_count_rejected_before_reading_entries(key_count):
    blob = bytearray(small_blob())
    at = layout(blob)[0]
    struct.pack_into("<Q", blob, at, key_count)
    with pytest.raises(IndexFormatError, match=rf"key count {key_count} at byte {at} needs"):
        FastSSIndex.from_bytes(bytes(blob))


def test_key_count_one_too_many_is_truncation():
    blob = bytearray(small_blob())
    at, entries = layout(blob)
    struct.pack_into("<Q", blob, at, len(entries) + 1)
    with pytest.raises(IndexFormatError,
                       match=rf"truncated while reading entry {len(entries)} at byte {len(blob)}$"):
        FastSSIndex.from_bytes(bytes(blob))


@pytest.mark.parametrize("count", [0xFFFFFFFF, 2**30])
def test_inflated_id_count_names_its_byte(count):
    blob = bytearray(small_blob())
    pos, _key, _ids = layout(blob)[1][0]
    struct.pack_into("<I", blob, pos + 8, count)
    with pytest.raises(IndexFormatError,
                       match=rf"truncated while reading ids of entry 0 at byte {pos + 12}$"):
        FastSSIndex.from_bytes(bytes(blob))


def test_every_format_error_names_a_byte():
    # One blob per kind of damage, each reaching a different check.
    blob = small_blob()
    at = layout(blob)[0]
    damaged = [blob[:3], blob[:20], blob + b"\x00", b"XXXX" + blob[4:]]
    # version, split threshold 0, an empty word, bad UTF-8, the key count
    for offset, value in [(4, b"\x02\x00"), (7, b"\x00" * 4), (15, b"\x00\x00"),
                          (17, b"\xff"), (at, b"\xff" * 8)]:
        damaged.append(blob[:offset] + value + blob[offset + len(value):])
    for bad in damaged:
        with pytest.raises(IndexFormatError, match=r"byte \d+"):
            FastSSIndex.from_bytes(bad)


BLOBS = [
    small_blob(),
    FastSSIndex.build(Dictionary(["ab", "ba", "aabba"]), IndexParams(2, 3)).to_bytes(),
    FastSSIndex.build(Dictionary(["münchen", "köln"]), IndexParams(0)).to_bytes(),
    FastSSIndex.build(Dictionary([]), IndexParams(1)).to_bytes(),
]


@st.composite
def mutated_blobs(draw) -> bytes:
    """A small valid blob with one byte flipped, cut short, or a u32 or u64
    overwritten with a larger count, at any offset or at a count field."""
    blob = bytearray(draw(st.sampled_from(BLOBS)))
    key_count_at, entries = layout(blob)
    kind = draw(st.sampled_from(["flip", "truncate", "u32", "u64"]))
    if kind == "truncate":
        return bytes(blob[:draw(st.integers(0, len(blob) - 1))])
    if kind == "flip":
        pos = draw(st.integers(0, len(blob) - 1))
        blob[pos] ^= draw(st.integers(1, 255))
        return bytes(blob)
    size, fmt = (4, "<I") if kind == "u32" else (8, "<Q")
    counts = [11, key_count_at] + [pos + 8 for pos, _key, _ids in entries]
    anywhere = st.integers(0, len(blob) - size)
    pos = draw(st.one_of(st.sampled_from([p for p in counts if p <= len(blob) - size]),
                         anywhere))
    (old,) = struct.unpack_from(fmt, blob, pos)
    limit = 2 ** (8 * size) - 1
    new = draw(st.one_of(st.just(limit), st.integers(old + 1, min(old + 4, limit))
                         if old < limit else st.just(limit)))
    struct.pack_into(fmt, blob, pos, new)
    return bytes(blob)


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(mutated_blobs())
def test_reader_fuzz_rejects_or_round_trips(blob):
    # Keys strictly ascending, ids ascending and in range, exact length:
    # what the reader accepts is exactly what the writer writes.
    try:
        index = FastSSIndex.from_bytes(blob)
    except IndexFormatError:
        return
    assert index.to_bytes() == blob
