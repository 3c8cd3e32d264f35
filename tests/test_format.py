"""The index file: pinned writer output, and a reader that names the byte of
every format error and writes back as they are the blobs it accepts. The
reader checks sizes, order, id ranges and non-empty keys, not the key set
the words would give, so a blob edited within those rules still loads."""

import hashlib
import struct
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastss.bench import bundled_words_path, load_dictionary
from fastss.index import Dictionary, FastSSIndex, IndexFormatError, IndexParams


class Table(NamedTuple):
    """The posting table of a blob as read by hand from the sizes in its
    header: where its keys start, and its three arrays."""

    keys_at: int
    keys: tuple[int, ...]
    counts: tuple[int, ...]
    ids: tuple[int, ...]

    @property
    def counts_at(self) -> int:
        return self.keys_at + 8 * len(self.keys)

    @property
    def ids_at(self) -> int:
        return self.counts_at + 4 * len(self.keys)

    def first_id_at(self, k: int) -> int:
        """Byte offset of the first id of key k."""
        return self.ids_at + 4 * sum(self.counts[:k])


HEADER_SIZE = 35
SIZE_FIELDS = {"words": 11, "keys": 19, "ids": 27}  # W, K and N, each u64


def layout(blob: bytes) -> Table:
    """Read the three sections of the posting table of a blob by hand."""
    words_len, key_count, id_count = struct.unpack_from("<3Q", blob, 11)
    keys_at = HEADER_SIZE + words_len
    keys = struct.unpack_from(f"<{key_count}Q", blob, keys_at)
    counts = struct.unpack_from(f"<{key_count}I", blob, keys_at + 8 * key_count)
    ids = struct.unpack_from(f"<{id_count}I", blob, keys_at + 12 * key_count)
    table = Table(keys_at, keys, counts, ids)
    assert sum(counts) == id_count and table.ids_at + 4 * id_count == len(blob)
    return table


def small_blob() -> bytes:
    # "abc" and "abd" share the residual "ab", so one key holds two ids.
    return FastSSIndex.build(Dictionary(["abc", "abd", "xyz"]), IndexParams(1)).to_bytes()


def shared_key(table: Table) -> int:
    """The first key with more than one id."""
    return next(k for k, count in enumerate(table.counts) if count > 1)


def test_file_bytes_of_bundled_list_are_pinned():
    # Each key costs 12 bytes and each id 4, as in every version. The table
    # section, the last 12K + 4N bytes, hashes to the digest it had in
    # version 5: no key and no id moved when the header and words changed.
    dictionary = load_dictionary(bundled_words_path())
    for params, length, digest, table_digest in [
        (IndexParams(2), 9_399_885,
         "6f37f0dcee0b926770a47ca19f8937d5c4a01556187d6567d4bcfe5810b5c190",
         "e91c54544c11d65aec1205fa474303c7bad2e19db3d47f9e7da8d6d8e5342fd0"),
        (IndexParams(3, 7), 4_186_753,
         "afdb3c8aa4da66037366721d36399189db53a34283426e0a03eefe32ba2c81cb",
         "6f226686729b7ed41303dc6c5c5bdb1c28de8c1db86fb265beaee7a541077890"),
    ]:
        blob = FastSSIndex.build(dictionary, params).to_bytes()
        assert len(blob) == length, params
        assert hashlib.sha256(blob).hexdigest() == digest, params
        table = hashlib.sha256(blob[layout(blob).keys_at:]).hexdigest()
        assert table == table_digest, params


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


def assert_size_check_fails(field: str, new: int) -> None:
    """Set one size in the header to new and expect the size check to
    reject the blob, naming that size's byte and the length it implies."""
    blob = bytearray(small_blob())
    at = SIZE_FIELDS[field]
    (size,) = struct.unpack_from("<Q", blob, at)
    struct.pack_into("<Q", blob, at, new)
    end = len(blob) + (new - size) * {"words": 1, "keys": 12, "ids": 4}[field]
    with pytest.raises(IndexFormatError,
                       match=rf"^truncated: the data has {len(blob)} bytes, .*"
                             rf"byte {at} \({field}\).* give {end}$"):
        FastSSIndex.from_bytes(bytes(blob))


@pytest.mark.parametrize("field", ["words", "ids"])
@pytest.mark.parametrize("inflate", ["max", "one_more"])
def test_inflated_size_field_fails_size_check(field, inflate):
    # A size of 2**64 - 1 is rejected from the sizes alone, before the
    # reader allocates anything for the words or the table.
    (size,) = struct.unpack_from("<Q", small_blob(), SIZE_FIELDS[field])
    assert_size_check_fails(field, 2**64 - 1 if inflate == "max" else size + 1)


@pytest.mark.parametrize("key_count", [2**64 - 1, 2**40])
def test_inflated_key_count_rejected_before_reading_entries(key_count):
    assert_size_check_fails("keys", key_count)


def test_key_count_one_too_many_is_truncation():
    assert_size_check_fails("keys", len(layout(small_blob()).keys) + 1)


@pytest.mark.parametrize("count", [0xFFFFFFFF, 2**30])
def test_inflated_id_count_names_its_byte(count):
    # The first and the last key: the running sum passes N at the count raised.
    table = layout(small_blob())
    for k in (0, len(table.keys) - 1):
        blob = bytearray(small_blob())
        at = table.counts_at + 4 * k
        struct.pack_into("<I", blob, at, count)
        with pytest.raises(IndexFormatError,
                           match=rf"^the id count of key {k} at byte {at} runs past "
                                 rf"the {len(table.ids)} ids that byte 27 gives$"):
            FastSSIndex.from_bytes(bytes(blob))


def test_key_without_ids_names_its_byte():
    # Key 1's ids moved under key 2 keep every size and order the reader
    # checks, but a probe of key 1 would find nothing.
    blob = bytearray(FastSSIndex.build(Dictionary(["ab", "ba", "abc"]),
                                       IndexParams(1)).to_bytes())
    table = layout(blob)
    merged = table.ids[table.counts[0]:table.counts[0] + table.counts[1] + table.counts[2]]
    assert list(merged) == sorted(set(merged))
    at = table.counts_at + 4
    struct.pack_into("<2I", blob, at, 0, table.counts[1] + table.counts[2])
    with pytest.raises(IndexFormatError, match=rf"^key 1 has no ids: .* at byte {at} is 0$"):
        FastSSIndex.from_bytes(bytes(blob))


def test_every_format_error_names_a_byte():
    # One blob per kind of damage, each reaching a different check.
    blob = small_blob()  # words "abc\nabd\nxyz" from byte 35
    table = layout(blob)
    damaged = [(blob[:3], "bad magic"), (b"XXXX" + blob[4:], "bad magic"),
               (blob[:20], "truncated header"), (blob + b"\x00", "trailing bytes"),
               (blob[:-1], "truncated: the data has")]
    for offset, value, error in [
        (4, b"\x01\x00", "unsupported format version"),
        (7, b"\x00" * 4, "invalid parameters"),           # split threshold 0
        (11, b"\x0c", "truncated: the data has"),         # W one more
        (36, b"\xff", "not valid UTF-8"),
        (35, b"\n", "empty word"),
        (41, b"c", "duplicate word"),                     # "abc" twice
        (table.counts_at, b"\xff", "runs past"),          # an id count past N
        (table.counts_at, b"\x00", "fall short"),         # the counts below N
        (table.keys_at, b"\xff" * 8, "not above the previous key"),
        (table.ids_at, b"\x09", "out of range"),
        (table.first_id_at(shared_key(table)) + 4, b"\x00", "not strictly ascending"),
    ]:
        damaged.append((blob[:offset] + value + blob[offset + len(value):], error))
    for bad, error in damaged:
        with pytest.raises(IndexFormatError, match=r"byte \d+") as raised:
            FastSSIndex.from_bytes(bad)
        assert error in str(raised.value)


BLOBS = [
    small_blob(),
    FastSSIndex.build(Dictionary(["ab", "ba", "aabba"]), IndexParams(2, 3)).to_bytes(),
    FastSSIndex.build(Dictionary(["münchen", "köln"]), IndexParams(0)).to_bytes(),
    FastSSIndex.build(Dictionary([]), IndexParams(1)).to_bytes(),
]


@st.composite
def mutated_blobs(draw) -> bytes:
    """A small valid blob with one byte flipped, cut short, or a u32 or u64
    overwritten with a larger count, at any offset or at a count field: one
    of the three sizes in the header or an id count."""
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
    counts = list(SIZE_FIELDS.values()) + [table.counts_at + 4 * k
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
    # Exact length, keys strictly ascending, every key with ids, ids
    # ascending and in range: what the reader accepts, it writes back byte
    # for byte. It does not check the keys against the words.
    try:
        index = FastSSIndex.from_bytes(blob)
    except IndexFormatError:
        return
    assert index.to_bytes() == blob
