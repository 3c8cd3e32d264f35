import random
import struct

import pytest

from fastss.index import Dictionary, FastSSIndex, IndexFormatError, IndexParams
from helpers import random_unique_words


def build_random_index(rng):
    words = random_unique_words(rng, rng.randint(1, 60), 1, 12)
    d = rng.randint(0, 4)
    m = rng.choice([None, None, rng.randint(d + 1, 12)])
    return FastSSIndex.build(Dictionary(words), IndexParams(d, m))


def test_round_trip_random_indexes():
    rng = random.Random(20)
    for _ in range(50):
        idx = build_random_index(rng)
        restored = FastSSIndex.from_bytes(idx.to_bytes())
        assert restored == idx
        assert restored.stats == idx.stats
        assert restored.params == idx.params


def test_round_trip_preserves_queries():
    rng = random.Random(21)
    words = random_unique_words(rng, 40, 1, 10)
    idx = FastSSIndex.build(Dictionary(words), IndexParams(2, 5))
    restored = FastSSIndex.from_bytes(idx.to_bytes())
    for w in words:
        assert restored.search(w) == idx.search(w)


def test_round_trip_empty_dictionary():
    idx = FastSSIndex.build(Dictionary([]), IndexParams(1))
    restored = FastSSIndex.from_bytes(idx.to_bytes())
    assert restored == idx
    assert len(restored.dictionary) == 0
    assert restored.search("anything") == []


def test_round_trip_unicode_words():
    idx = FastSSIndex.build(Dictionary(["münchen", "köln", "øre"]), IndexParams(2))
    restored = FastSSIndex.from_bytes(idx.to_bytes())
    assert restored.dictionary.words == ("münchen", "köln", "øre")
    assert restored == idx


def test_header_layout_is_stable():
    idx = FastSSIndex.build(Dictionary(["ab"]), IndexParams(1))
    blob = idx.to_bytes()
    assert blob[:4] == b"FSSI"
    version, d, m = struct.unpack_from("<HBI", blob, 4)
    assert (version, d, m) == (5, 1, 0xFFFFFFFF)
    (word_count,) = struct.unpack_from("<I", blob, 11)
    assert word_count == 1
    (byte_len,) = struct.unpack_from("<H", blob, 15)
    assert byte_len == 2 and blob[17:19] == b"ab"


def test_corrupted_magic_rejected():
    blob = bytearray(FastSSIndex.build(Dictionary(["ab"]), IndexParams(1)).to_bytes())
    blob[0] ^= 0xFF
    with pytest.raises(IndexFormatError, match="magic"):
        FastSSIndex.from_bytes(bytes(blob))


@pytest.mark.parametrize("version", [1, 2, 3, 4, 99])
def test_unsupported_version_rejected(version):
    blob = bytearray(FastSSIndex.build(Dictionary(["ab"]), IndexParams(1)).to_bytes())
    struct.pack_into("<H", blob, 4, version)
    with pytest.raises(IndexFormatError, match=f"unsupported format version {version} at byte 4$"):
        FastSSIndex.from_bytes(bytes(blob))


def test_truncation_rejected_everywhere():
    blob = FastSSIndex.build(
        Dictionary(["abc", "abd", "xyz"]), IndexParams(1, 2)).to_bytes()
    for cut in range(len(blob)):
        with pytest.raises(IndexFormatError):
            FastSSIndex.from_bytes(blob[:cut])


def test_trailing_garbage_rejected():
    blob = FastSSIndex.build(Dictionary(["ab"]), IndexParams(1)).to_bytes()
    with pytest.raises(IndexFormatError, match="trailing"):
        FastSSIndex.from_bytes(blob + b"\x00")


def test_error_messages_carry_position():
    blob = FastSSIndex.build(Dictionary(["ab"]), IndexParams(1)).to_bytes()
    with pytest.raises(IndexFormatError, match=r"byte \d+"):
        FastSSIndex.from_bytes(blob[:6])
