"""The index file: pinned writer output, and a reader that names the byte of
every format error and accepts only blobs it would write back as they are."""

import hashlib
import struct
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastss.bench import bundled_words_path, load_dictionary
from fastss.index import Dictionary, FastSSIndex, IndexFormatError, IndexParams


class Table(NamedTuple):
    """The posting table of a blob as read by hand: where its key count
    sits, and its three arrays."""

    key_count_at: int
    keys: tuple[int, ...]
    counts: tuple[int, ...]
    ids: tuple[int, ...]

    @property
    def keys_at(self) -> int:
        return self.key_count_at + 8

    @property
    def counts_at(self) -> int:
        return self.keys_at + 8 * len(self.keys)

    @property
    def ids_at(self) -> int:
        return self.counts_at + 4 * len(self.keys)

    def first_id_at(self, k: int) -> int:
        """Byte offset of the first id of key k."""
        return self.ids_at + 4 * sum(self.counts[:k])


def layout(blob: bytes) -> Table:
    """Read the three sections of the posting table of a blob by hand."""
    (word_count,) = struct.unpack_from("<I", blob, 11)
    pos = 15
    for _ in range(word_count):
        (length,) = struct.unpack_from("<H", blob, pos)
        pos += 2 + length
    key_count_at = pos
    (key_count,) = struct.unpack_from("<Q", blob, pos)
    keys = struct.unpack_from(f"<{key_count}Q", blob, pos + 8)
    counts = struct.unpack_from(f"<{key_count}I", blob, pos + 8 + 8 * key_count)
    ids = struct.unpack_from(f"<{sum(counts)}I", blob, pos + 8 + 12 * key_count)
    table = Table(key_count_at, keys, counts, ids)
    assert table.ids_at + 4 * len(ids) == len(blob)
    return table


def small_blob() -> bytes:
    # "abc" and "abd" share the residual "ab", so one key holds two ids.
    return FastSSIndex.build(Dictionary(["abc", "abd", "xyz"]), IndexParams(1)).to_bytes()


def shared_key(table: Table) -> int:
    """The first key with more than one id."""
    return next(k for k, count in enumerate(table.counts) if count > 1)


def test_file_bytes_of_bundled_list_are_pinned():
    # Each key costs 12 bytes and each id 4, as in versions 1 to 4. The
    # bundled list is all ASCII, whose code points are its UTF-8 bytes, so
    # both files differ from version 4 only in their version field: with it
    # set back to 4 they hash to the version 4 digests, and no key moved.
    dictionary = load_dictionary(bundled_words_path())
    for params, length, digest, digest_v4 in [
        (IndexParams(2), 9_419_874,
         "a967852d2261c70eed8982101e13ca260a63e12de8d41d9e8a6ebd3204e5ed01",
         "090c5f80e4a00dfc8f1c1b8e709886b946fd13fb4218fe82b7f446919d732028"),
        (IndexParams(3, 7), 4_206_742,
         "a3d8505bf3d2472aef4f82d50328afd93d63e481a8a4fbfcdb9ccefacdf81dd8",
         "8b628bb094045524d8561be359d2f82d2dc1ca0bf8492e1251507f487c5fb74d"),
    ]:
        blob = FastSSIndex.build(dictionary, params).to_bytes()
        assert len(blob) == length, params
        assert hashlib.sha256(blob).hexdigest() == digest, params
        as_v4 = bytearray(blob)
        struct.pack_into("<H", as_v4, 4, 4)
        assert hashlib.sha256(as_v4).hexdigest() == digest_v4, params


def test_word_id_out_of_range_names_its_byte():
    blob = bytearray(small_blob())
    at = layout(blob).ids_at
    struct.pack_into("<I", blob, at, 3)  # three words: ids 0..2
    with pytest.raises(IndexFormatError, match=rf"word id 3 out of range .* at byte {at}$"):
        FastSSIndex.from_bytes(bytes(blob))


@pytest.mark.parametrize("first, second", [(1, 0), (0, 0)], ids=["descending", "repeated"])
def test_word_ids_not_ascending_name_their_byte(first, second):
    blob = bytearray(small_blob())
    table = layout(blob)
    k = shared_key(table)
    at = table.first_id_at(k)
    struct.pack_into("<2I", blob, at, first, second)
    with pytest.raises(IndexFormatError,
                       match=rf"not strictly ascending in key {k} at byte {at + 4}$"):
        FastSSIndex.from_bytes(bytes(blob))


@pytest.mark.parametrize("change", ["swapped", "duplicated"])
def test_keys_not_ascending_name_their_byte(change):
    blob = bytearray(small_blob())
    table = layout(blob)
    key0, key1 = table.keys[:2]
    struct.pack_into("<Q", blob, table.keys_at + 8, key0)
    if change == "swapped":
        struct.pack_into("<Q", blob, table.keys_at, key1)
    with pytest.raises(IndexFormatError,
                       match=rf"key 1 not above the previous key at byte {table.keys_at + 8}$"):
        FastSSIndex.from_bytes(bytes(blob))


@pytest.mark.parametrize("key_count", [2**64 - 1, 2**40])
def test_inflated_key_count_rejected_before_reading_entries(key_count):
    blob = bytearray(small_blob())
    at = layout(blob).key_count_at
    struct.pack_into("<Q", blob, at, key_count)
    with pytest.raises(IndexFormatError, match=rf"key count {key_count} at byte {at} needs"):
        FastSSIndex.from_bytes(bytes(blob))


def test_key_count_one_too_many_is_truncation():
    blob = bytearray(small_blob())
    table = layout(blob)
    key_count = len(table.keys) + 1
    struct.pack_into("<Q", blob, table.key_count_at, key_count)
    # The reader now takes the id counts from 8 bytes further on and the
    # ids from 12 bytes further on; find the first count that overruns.
    counts_at = table.keys_at + 8 * key_count
    end = counts_at + 4 * key_count
    for k, count in enumerate(struct.unpack_from(f"<{key_count}I", blob, counts_at)):
        end += 4 * count
        if end > len(blob):
            break
    else:
        pytest.fail("the shifted counts fit the blob")
    with pytest.raises(IndexFormatError,
                       match=rf"truncated while reading ids of key {k}: its id count at "
                             rf"byte {counts_at + 4 * k} runs past the end at byte {len(blob)}$"):
        FastSSIndex.from_bytes(bytes(blob))


@pytest.mark.parametrize("count", [0xFFFFFFFF, 2**30])
def test_inflated_id_count_names_its_byte(count):
    blob = bytearray(small_blob())
    at = layout(blob).counts_at
    struct.pack_into("<I", blob, at, count)
    with pytest.raises(IndexFormatError,
                       match=rf"truncated while reading ids of key 0: its id count at "
                             rf"byte {at} runs past the end at byte {len(blob)}$"):
        FastSSIndex.from_bytes(bytes(blob))


def test_every_format_error_names_a_byte():
    # One blob per kind of damage, each reaching a different check.
    blob = small_blob()
    at = layout(blob).key_count_at
    damaged = [blob[:3], blob[:20], blob + b"\x00", b"XXXX" + blob[4:]]
    # version, split threshold 0, an empty word, bad UTF-8, the key count
    for offset, value in [(4, b"\x01\x00"), (7, b"\x00" * 4), (15, b"\x00\x00"),
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
    overwritten with a larger count, at any offset or at a count field: the
    word count, the key count or an id count."""
    blob = bytearray(draw(st.sampled_from(BLOBS)))
    table = layout(blob)
    kind = draw(st.sampled_from(["flip", "truncate", "u32", "u64"]))
    if kind == "truncate":
        return bytes(blob[:draw(st.integers(0, len(blob) - 1))])
    if kind == "flip":
        pos = draw(st.integers(0, len(blob) - 1))
        blob[pos] ^= draw(st.integers(1, 255))
        return bytes(blob)
    size, fmt = (4, "<I") if kind == "u32" else (8, "<Q")
    counts = [11, table.key_count_at] + [table.counts_at + 4 * k
                                         for k in range(len(table.keys))]
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
