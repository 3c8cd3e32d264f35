import mmap
import struct

import pytest

from fastss.index import Dictionary, FastSSIndex, IndexFormatError, IndexParams


def test_round_trip_empty_dictionary():
    idx = FastSSIndex.build(Dictionary([]), IndexParams(1))
    restored = FastSSIndex.from_bytes(idx.to_bytes())
    assert restored == idx
    assert len(restored.dictionary) == 0
    assert restored.search("anything") == []


@pytest.mark.parametrize("d, m, field", [(256, None, "u8"), (1, 0xFFFFFFFF, "u32")])
def test_params_beyond_the_header_fields_are_not_written(d, m, field):
    # d is one byte and m four, with 0xFFFFFFFF kept for "never split".
    # IndexParams refuses what the header cannot hold, so no index that
    # builds fails to save.
    with pytest.raises(ValueError, match=field):
        IndexParams(d, m)


@pytest.mark.parametrize("d, m", [(255, None), (1, 0xFFFFFFFE)])
def test_params_at_the_header_field_limits_round_trip(d, m):
    idx = FastSSIndex.build(Dictionary(["ab"]), IndexParams(d, m))
    assert FastSSIndex.from_bytes(idx.to_bytes()) == idx


def test_from_bytes_accepts_any_bytes_like(tmp_path):
    idx = FastSSIndex.build(Dictionary(["münchen", "köln", "øre"]), IndexParams(2, 4))
    blob = idx.to_bytes()
    assert FastSSIndex.from_bytes(blob) == idx
    assert FastSSIndex.from_bytes(bytearray(blob)) == idx
    assert FastSSIndex.from_bytes(memoryview(blob)) == idx
    path = tmp_path / "words.fssi"
    path.write_bytes(blob)
    with path.open("rb") as file:
        with mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
            assert FastSSIndex.from_bytes(mapped) == idx
    with pytest.raises(TypeError, match="C-contiguous"):
        FastSSIndex.from_bytes(memoryview(blob * 2)[::2])


def _load_from_bytearray_then_overwrite(blob, tmp_path):
    data = bytearray(blob)
    restored = FastSSIndex.from_bytes(data)
    data[:] = b"\xff" * len(data)
    return restored


def _load_from_mmap_then_close(blob, tmp_path):
    path = tmp_path / "words.fssi"
    path.write_bytes(blob)
    with path.open("rb") as file:
        mapped = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
    restored = FastSSIndex.from_bytes(mapped)
    mapped.close()  # raises BufferError while any view of the map is alive
    return restored


@pytest.mark.parametrize("load", [_load_from_bytearray_then_overwrite,
                                  _load_from_mmap_then_close])
def test_loaded_index_never_reads_its_source_buffer(load, tmp_path):
    words = ["münchen", "köln", "øre", "koeln", "muenchen"]
    idx = FastSSIndex.build(Dictionary(words), IndexParams(2, 4))
    restored = load(idx.to_bytes(), tmp_path)
    assert restored == idx
    for q in words + ["munchen", "kln", "ore", ""]:
        assert restored.search(q) == idx.search(q), q


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8, 99])
def test_unsupported_version_rejected(version):
    # Named also in a blob shorter than today's header.
    blob = bytearray(FastSSIndex.build(Dictionary(["ab"]), IndexParams(1)).to_bytes())
    for old in (blob, blob[:12]):
        struct.pack_into("<H", old, 4, version)
        with pytest.raises(IndexFormatError,
                           match=f"unsupported format version {version} at byte 4$"):
            FastSSIndex.from_bytes(bytes(old))


def test_truncation_rejected_everywhere():
    blob = FastSSIndex.build(
        Dictionary(["abc", "abd", "xyz"]), IndexParams(1, 2)).to_bytes()
    for cut in range(len(blob)):
        with pytest.raises(IndexFormatError):
            FastSSIndex.from_bytes(blob[:cut])
