"""The index file, version 9: a 19-byte header and the words. Pinned writer
output, a reader that names the byte of every format error, and the
reader's contract: every blob either fails to load, naming a byte, or
loads an index that writes it back byte for byte and answers exactly as
the exhaustive scan of its own words does. A load builds the posting
table from the words, so no blob can hold keys that disagree with them."""

import hashlib
import random
import re
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastss.baselines import NaiveScanner
from fastss.bench import bundled_words_path, load_dictionary
from fastss.index import Dictionary, FastSSIndex, IndexFormatError, IndexParams
from fastss.neighborhood import HalfTag, residual_keys
from helpers import random_unique_words, refuse_plans

D_AT, M_AT, WORDS_SIZE_AT, WORDS_AT = 6, 7, 11, 19


def small_blob() -> bytes:
    return FastSSIndex.build(Dictionary(["abc", "abd", "xyz"]), IndexParams(1)).to_bytes()


def test_file_bytes_of_bundled_list_are_pinned():
    # Both workloads' files are the header and the same 162,794 bytes of
    # words; they differ only in d and m.
    dictionary = load_dictionary(bundled_words_path())
    words = "\n".join(dictionary.words).encode("utf-8")
    for params, m, digest in [
        (IndexParams(2), 0xFFFFFFFF,
         "8a6c34dfa83b96c6ca544249c03dbc7420dc4de386a783856ebcac062746d70b"),
        (IndexParams(3, 7), 7,
         "7b4c555ecf4f72bc9dd2086daddc043ecdc04c46494a498981b941fe97aa6b76"),
    ]:
        blob = FastSSIndex.build(dictionary, params).to_bytes()
        assert len(blob) == 162_813 == WORDS_AT + len(words), params
        assert struct.unpack_from("<4sHBIQ", blob) == (
            b"FSSI", 9, params.max_distance, m, len(words)), params
        assert blob[WORDS_AT:] == words, params
        assert hashlib.sha256(blob).hexdigest() == digest, params


@pytest.mark.parametrize("inflate", ["max", "one_more"], ids=["max-words", "one_more-words"])
def test_inflated_size_field_fails_size_check(inflate):
    # W is the one size in the header. A W of 2**64 - 1 is rejected from the
    # header alone, before the reader reads or builds anything.
    blob = bytearray(small_blob())
    (size,) = struct.unpack_from("<Q", blob, WORDS_SIZE_AT)
    new = 2**64 - 1 if inflate == "max" else size + 1
    struct.pack_into("<Q", blob, WORDS_SIZE_AT, new)
    with pytest.raises(IndexFormatError,
                       match=rf"^truncated: the data has {len(blob)} bytes, "
                             rf"the words size at byte 11 gives {WORDS_AT + new}$"):
        FastSSIndex.from_bytes(bytes(blob))


def test_every_format_error_names_a_byte():
    # One blob per kind of damage, each reaching a different check.
    blob = small_blob()  # words "abc\nabd\nxyz" from byte 19
    damaged = [(blob[:3], "bad magic"), (b"XXXX" + blob[4:], "bad magic"),
               (blob[:WORDS_AT - 1], "truncated header"), (blob + b"\x00", "trailing bytes"),
               (blob[:-1], "truncated: the data has")]
    for offset, value, error in [
        (4, b"\x08\x00", "unsupported format version"),
        (M_AT, b"\x00" * 4, "invalid parameters in header at byte 7"),  # m = 0
        (WORDS_SIZE_AT, b"\x0c", "truncated: the data has"),  # W one more
        (WORDS_AT + 1, b"\xff", "not valid UTF-8"),
        (WORDS_AT, b"\n", "empty word"),
        (WORDS_AT + 6, b"c", "duplicate word"),           # "abc" twice
    ]:
        damaged.append((blob[:offset] + value + blob[offset + len(value):], error))
    # d = 255 over a 40-character word: 2**40 states, whose plan the build
    # refuses from their count.
    long_word = bytearray(FastSSIndex.build(Dictionary(["a" * 40]), IndexParams(0)).to_bytes())
    long_word[D_AT] = 255
    damaged.append((bytes(long_word), "residual plans"))
    for bad, error in damaged:
        with pytest.raises(IndexFormatError, match=r"byte \d+") as raised:
            FastSSIndex.from_bytes(bad)
        assert error in str(raised.value)


def test_header_d_beyond_the_build_limit_is_refused_before_any_plan(monkeypatch):
    # One 25-character word at d = 255 has 2**25 states, whose plan would
    # take 3.4 GB. The reader names the d byte without making a plan and
    # without allocating for one.
    blob = bytearray(FastSSIndex.build(Dictionary(["abcdefghijklmnopqrstuvwxy"]),
                                       IndexParams(0)).to_bytes())
    blob[D_AT] = 255
    calls = refuse_plans(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(IndexFormatError,
                           match=r"^invalid parameters in header at byte 6: the words' residual "
                                 r"plans would take 3,355,443,200 bytes, .* for 25-character "
                                 r"words, has 33,554,432 states$"):
            FastSSIndex.from_bytes(bytes(blob))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 1 << 20


def test_header_d_that_multiplies_the_states_is_refused_before_any_plan(monkeypatch):
    # 750 distinct 20-character words, a file of about 16 kB, at d = 20:
    # 2**20 states each, whose one plan, 84 MB, is within its limit, but
    # whose pair buffer would take 6.3 GB. The state limit refuses them
    # before any plan is made or any buffer allocated.
    words = random_unique_words(random.Random(26), 750, 20, 20)
    blob = bytearray(FastSSIndex.build(Dictionary(words), IndexParams(0)).to_bytes())
    assert len(blob) == 19 + 750 * 21 - 1
    blob[D_AT] = 20
    calls = refuse_plans(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(IndexFormatError,
                           match=r"^invalid parameters in header at byte 6: the words have "
                                 r"786,432,000 residual states, more than 16,777,216"):
            FastSSIndex.from_bytes(bytes(blob))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 1 << 20


def test_header_d_past_every_query_plan_answers_as_the_scan():
    # The one-word "abc" file at d = 20 loads (8 states) and admits queries
    # of up to 23 characters, whose plan would have 8,388,331 rows and take
    # 771,726,452 bytes. The plan is refused; the words within d characters
    # of the query's length are verified instead, as the scan does.
    blob = bytearray(FastSSIndex.build(Dictionary(["abc"]), IndexParams(0)).to_bytes())
    blob[D_AT] = 20
    index = FastSSIndex.from_bytes(bytes(blob))
    scanner = NaiveScanner(index.dictionary)
    tracemalloc.start()
    try:
        answers = [index.search(q) for q in ("abc" + "z" * 20, "z" * 23)]
        with pytest.raises(ValueError, match=r"^a residual plan of 1,073,741,824 states for 30 "
                                             r"characters would take 128,849,018,880 bytes"):
            residual_keys("a" * 30, 30, HalfTag.WHOLE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answers == [scanner.scan("abc" + "z" * 20, 20), scanner.scan("z" * 23, 20)]
    assert answers == [[(0, 20)], []]
    assert peak < 1 << 20


PROBES = ["", "a", "ab", "ba", "abc", "abd", "xbz", "xyz", "aabba", "abba",
          "köln", "koln", "münchen", "munchen", "zzzzzzzzzz"]
BLOBS = [
    small_blob(),
    FastSSIndex.build(Dictionary(["ab", "ba", "aabba"]), IndexParams(2, 3)).to_bytes(),
    FastSSIndex.build(Dictionary(["münchen", "köln"]), IndexParams(0)).to_bytes(),
    FastSSIndex.build(Dictionary([]), IndexParams(1)).to_bytes(),
]
HEADER_FIELDS = [D_AT, M_AT, M_AT + 1, M_AT + 2, M_AT + 3, WORDS_SIZE_AT]


@st.composite
def mutated_blobs(draw) -> bytes:
    """A small valid blob with one byte flipped, cut short, or a u32 or u64
    overwritten with a larger value, at any offset or in a header field:
    the d byte, a byte of m or the words size W."""
    blob = bytearray(draw(st.sampled_from(BLOBS)))
    kind = draw(st.sampled_from(["flip", "truncate", "u32", "u64"]))
    if kind == "truncate":
        return bytes(blob[:draw(st.integers(0, len(blob) - 1))])
    size, fmt = {"flip": (1, "<B"), "u32": (4, "<I"), "u64": (8, "<Q")}[kind]
    pos = draw(st.one_of(st.sampled_from([p for p in HEADER_FIELDS if p <= len(blob) - size]),
                         st.integers(0, len(blob) - size)))
    (old,) = struct.unpack_from(fmt, blob, pos)
    limit = 2 ** (8 * size) - 1
    if kind == "flip":
        new = old ^ draw(st.integers(1, 255))
    else:
        new = draw(st.one_of(st.just(limit), st.integers(old + 1, min(old + 4, limit))
                             if old < limit else st.just(limit)))
    struct.pack_into(fmt, blob, pos, new)
    return bytes(blob)


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(mutated_blobs())
def test_reader_fuzz_rejects_or_round_trips(blob):
    # Either an error that names a byte, or an index that writes the blob
    # back byte for byte and answers every probe as the exhaustive scan of
    # its words at its d does, whatever the d and m bytes now say.
    try:
        index = FastSSIndex.from_bytes(blob)
    except IndexFormatError as exc:
        assert re.search(r"byte \d+", str(exc)), exc
        return
    assert index.to_bytes() == blob
    scanner = NaiveScanner(index.dictionary)
    for probe in PROBES:
        assert index.search(probe) == scanner.scan(probe, index.params.max_distance), probe
