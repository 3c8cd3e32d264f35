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
    header: its three arrays, from byte 36 on, and where the words start."""

    keys: tuple[int, ...]
    offsets: tuple[int, ...]
    ids: tuple[int, ...]

    keys_at = 36

    @property
    def offsets_at(self) -> int:
        return self.keys_at + 4 * len(self.keys)

    @property
    def ids_at(self) -> int:
        return self.offsets_at + 4 * len(self.offsets)

    @property
    def words_at(self) -> int:
        return self.ids_at + 4 * len(self.ids)

    @property
    def counts(self) -> list[int]:
        return [stop - start for start, stop in zip(self.offsets, self.offsets[1:])]

    def first_id_at(self, k: int) -> int:
        """Byte offset of the first id of key k."""
        return self.ids_at + 4 * self.offsets[k]


SIZE_FIELDS = {"words": 11, "keys": 19, "ids": 27}  # W, K and N, each u64


def layout(blob: bytes) -> Table:
    """Read the three sections of the posting table of a blob by hand."""
    words_len, key_count, id_count = struct.unpack_from("<3Q", blob, 11)
    keys = struct.unpack_from(f"<{key_count}I", blob, Table.keys_at)
    offsets = struct.unpack_from(f"<{key_count + 1}I", blob, Table.keys_at + 4 * key_count)
    ids = struct.unpack_from(f"<{id_count}I", blob, Table.keys_at + 8 * key_count + 4)
    table = Table(keys, offsets, ids)
    assert offsets[0] == 0 and offsets[-1] == id_count
    assert table.words_at + words_len == len(blob)
    return table


def small_blob() -> bytes:
    # "abc" and "abd" share the residual "ab", so one key holds two ids.
    return FastSSIndex.build(Dictionary(["abc", "abd", "xyz"]), IndexParams(1)).to_bytes()


def shared_key(table: Table) -> int:
    """The first key with more than one id."""
    return next(k for k, count in enumerate(table.counts) if count > 1)


def test_file_bytes_of_bundled_list_are_pinned():
    # Each key costs 8 bytes and each id 4, plus one offset per file. The
    # table section, the 8K + 4 + 4N bytes from byte 36, is pinned on its
    # own, so that a change to the header or the words alone leaves its
    # digest as it is.
    dictionary = load_dictionary(bundled_words_path())
    for params, length, digest, table_digest in [
        (IndexParams(2), 7_199_846,
         "ff09b48a168d2ccf641e1a927fb5300d4bf91e85e9a82f8d996848fb2cddf7e2",
         "efa8eb3c9df479f2155a3ee3818d3e001e751da72634925c8ffd4a004bcb9ff7"),
        (IndexParams(3, 7), 3_449_610,
         "a0b13a128c634fc97323ef1effc274aad64aeeb55c03f5590c77463135cad654",
         "5c469938f616843ea81d23aa86a40fbd5f675e7f18a76cf3f23ada2ad62b326a"),
    ]:
        blob = FastSSIndex.build(dictionary, params).to_bytes()
        assert len(blob) == length, params
        assert hashlib.sha256(blob).hexdigest() == digest, params
        table = hashlib.sha256(blob[Table.keys_at:layout(blob).words_at]).hexdigest()
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
    struct.pack_into("<I", blob, table.keys_at + 4, key0)
    if change == "swapped":
        struct.pack_into("<I", blob, table.keys_at, key1)
    with pytest.raises(IndexFormatError,
                       match=rf"key 1 not above the previous key at byte {table.keys_at + 4}$"):
        FastSSIndex.from_bytes(bytes(blob))


def assert_size_check_fails(field: str, new: int) -> None:
    """Set one size in the header to new and expect the size check to
    reject the blob, naming that size's byte and the length it implies."""
    blob = bytearray(small_blob())
    at = SIZE_FIELDS[field]
    (size,) = struct.unpack_from("<Q", blob, at)
    struct.pack_into("<Q", blob, at, new)
    end = len(blob) + (new - size) * {"words": 1, "keys": 8, "ids": 4}[field]
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
    # The first and the last key: the offset that ends its ids, raised
    # past N.
    table = layout(small_blob())
    for k in (0, len(table.keys) - 1):
        blob = bytearray(small_blob())
        at = table.offsets_at + 4 * (k + 1)
        struct.pack_into("<I", blob, at, count)
        with pytest.raises(IndexFormatError,
                           match=rf"^offset {k + 1} at byte {at} runs past "
                                 rf"the {len(table.ids)} ids that byte 27 gives$"):
            FastSSIndex.from_bytes(bytes(blob))


def test_key_without_ids_names_its_byte():
    # Key k's ids moved under key k + 1, by setting the offset between them
    # equal to the one before, keep every size and order the reader checks
    # but the offsets', and a probe of key k would find nothing.
    blob = bytearray(FastSSIndex.build(Dictionary(["ab", "ba", "abc"]),
                                       IndexParams(1)).to_bytes())
    table = layout(blob)
    k = next(k for k in range(len(table.keys) - 1)
             if sorted(set(merged := table.ids[table.offsets[k]:table.offsets[k + 2]]))
             == list(merged))
    at = table.offsets_at + 4 * (k + 1)
    struct.pack_into("<I", blob, at, table.offsets[k])
    with pytest.raises(IndexFormatError, match=rf"^key {k} has no ids: offset {k + 1} "
                                               rf"at byte {at} is not above the one before$"):
        FastSSIndex.from_bytes(bytes(blob))


def test_non_zero_reserved_byte_names_its_byte():
    # The writer sets the last header byte to zero, so a blob it accepts
    # writes back byte for byte.
    blob = bytearray(small_blob())
    blob[35] = 1
    with pytest.raises(IndexFormatError, match=r"^the reserved byte at byte 35 is 1, not 0$"):
        FastSSIndex.from_bytes(bytes(blob))


def test_first_offset_not_zero_names_its_byte():
    # Ids before the first offset would belong to no key.
    blob = bytearray(small_blob())
    at = layout(blob).offsets_at
    struct.pack_into("<I", blob, at, 1)
    with pytest.raises(IndexFormatError, match=rf"^the first offset at byte {at} is 1, not 0$"):
        FastSSIndex.from_bytes(bytes(blob))


def test_every_format_error_names_a_byte():
    # One blob per kind of damage, each reaching a different check.
    blob = small_blob()  # words "abc\nabd\nxyz", last
    table = layout(blob)
    words_at = table.words_at
    damaged = [(blob[:3], "bad magic"), (b"XXXX" + blob[4:], "bad magic"),
               (blob[:20], "truncated header"), (blob + b"\x00", "trailing bytes"),
               (blob[:-1], "truncated: the data has")]
    for offset, value, error in [
        (4, b"\x01\x00", "unsupported format version"),
        (7, b"\x00" * 4, "invalid parameters"),           # split threshold 0
        (11, b"\x0c", "truncated: the data has"),         # W one more
        (35, b"\x01", "the reserved byte"),
        (words_at + 1, b"\xff", "not valid UTF-8"),
        (words_at, b"\n", "empty word"),
        (words_at + 6, b"c", "duplicate word"),           # "abc" twice
        (table.offsets_at, b"\x01", "the first offset"),  # offset 0 not 0
        (table.offsets_at + 4, b"\xff", "runs past"),     # offset 1 past N
        (table.ids_at - 4, b"\x00", "falls short"),       # the last offset below N
        (table.offsets_at + 8, blob[table.offsets_at + 4:table.offsets_at + 8],
         "has no ids"),                                  # offset 2 equal to offset 1
        (table.keys_at, b"\xff" * 4, "not above the previous key"),
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
    of the three sizes in the header or a table offset."""
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
    counts = list(SIZE_FIELDS.values()) + [table.offsets_at + 4 * k
                                           for k in range(len(table.offsets))]
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
    # Exact length, a zero reserved byte, keys and offsets strictly
    # ascending from offset 0 to N, ids ascending and in range: what the
    # reader accepts, it writes back byte for byte. It does not check the
    # keys against the words.
    try:
        index = FastSSIndex.from_bytes(blob)
    except IndexFormatError:
        return
    assert index.to_bytes() == blob
