import random
from itertools import combinations
from math import comb

import pytest

from fastss.bench import bundled_words_path, load_dictionary
from fastss.distance import full_edit_distance
from fastss.index import Dictionary, FastSSIndex, IndexParams
from fastss.neighborhood import (
    HalfTag,
    _deletion_sources,
    _state_count,
    full_neighborhood,
    residual_keys,
)
from helpers import perturb_word, random_unique_words, random_word


def is_subsequence(short: str, long: str) -> bool:
    it = iter(long)
    return all(c in it for c in short)


def residuals_with(word: str, k: int) -> set[str]:
    """Residuals of ``word`` with exactly ``k`` deletions, one per position
    subset, computed independently of the library's enumerator."""
    return {"".join(c for i, c in enumerate(word) if i not in pos)
            for pos in combinations(range(len(word)), k)}


def level(word: str, max_deletions: int, k: int) -> set[str]:
    """The residuals in ``full_neighborhood`` with exactly ``k`` deletions:
    every residual of ``word`` has length ``len(word)`` minus its deletion
    count."""
    return {r for r in full_neighborhood(word, max_deletions)
            if len(r) == len(word) - k}


def test_delete_positions_basic():
    # Deleting given positions: abc minus 1, abc minus nothing, abcd minus 0 and 3.
    assert residuals_with("abc", 0) == {"abc"}
    assert "ac" in residuals_with("abc", 1)
    assert "bc" in residuals_with("abcd", 2)
    assert level("abc", 1, 0) == {"abc"}
    assert "ac" in level("abc", 1, 1)
    assert "bc" in level("abcd", 2, 2)


def test_deletion_neighborhood_examples():
    assert level("ab", 1, 1) == {"a", "b"}
    assert level("aa", 1, 1) == {"a"}
    # Derived by enumerating all C(3,2)=3 position pairs independently.
    expected = residuals_with("abc", 2)
    assert expected == {"a", "b", "c"}
    assert level("abc", 2, 2) == expected


def test_deletion_neighborhood_edges():
    assert full_neighborhood("abc", 0) == {"abc"}
    assert level("abc", 3, 3) == {""}
    assert full_neighborhood("", 2) == {""}
    # Budget beyond the length saturates: no residual has 4 deletions.
    assert full_neighborhood("abc", 4) == full_neighborhood("abc", 3)
    with pytest.raises(ValueError):
        full_neighborhood("abc", -1)


def test_full_neighborhood_examples():
    assert full_neighborhood("ab", 1) == {"ab", "a", "b"}
    assert full_neighborhood("xyz", 0) == {"xyz"}
    # Derived by enumerating all 2^3 subsets of positions.
    expected = set().union(*(residuals_with("abc", k) for k in range(4)))
    assert expected == {"abc", "ab", "ac", "bc", "a", "b", "c", ""}
    assert full_neighborhood("abc", 3) == expected
    # Budget beyond the length saturates instead of failing.
    assert full_neighborhood("abc", 9) == expected


def test_neighborhood_size_bound():
    rng = random.Random(3)
    for _ in range(200):
        w = random_word(rng, 0, 9)
        residuals = full_neighborhood(w, len(w))
        for k in range(0, len(w) + 1):
            size = len({r for r in residuals if len(r) == len(w) - k})
            assert size <= comb(len(w), k)
            if len(set(w)) == len(w):
                assert size == comb(len(w), k)


def test_neighborhood_levels_match_position_subsets():
    # Each deletion level equals the residuals of all position subsets of
    # that size, for every budget up to the word length.
    rng = random.Random(6)
    for _ in range(200):
        w = random_word(rng, 0, 8, alphabet="abc")
        for d in range(len(w) + 2):
            assert full_neighborhood(w, d) == set().union(
                *(residuals_with(w, k) for k in range(min(d, len(w)) + 1))), (w, d)


def test_neighborhood_elements_are_subsequences():
    rng = random.Random(4)
    for _ in range(200):
        w = random_word(rng, 0, 9)
        d = rng.randint(0, 3)
        for r in full_neighborhood(w, d):
            assert len(r) >= len(w) - d
            assert is_subsequence(r, w)
    assert all(w in full_neighborhood(w, d) for w in ("", "a", "abc") for d in (0, 2))


def fnv1a(data) -> int:
    """32-bit FNV-1a over a sequence of ints (bytes or code points), written
    out independently of the library."""
    h = 0x811C9DC5
    for value in data:
        h = ((h ^ value) * 0x01000193) & 0xFFFFFFFF
    return h


def test_hash_residual_fnv_reference_values():
    # FNV-1a 32 reference vectors (offset 0x811C9DC5, prime 0x01000193),
    # recomputed by hand for the tagged encoding: WHOLE + "" hashes the
    # single byte 0x00.
    assert residual_keys("", 0, HalfTag.WHOLE) == {0x050C5D1F}

    # Anchor the FNV core against published vectors, then check the tagged
    # encoding against the independent inline implementation.
    assert fnv1a(b"") == 0x811C9DC5
    assert fnv1a(b"a") == 0xE40C292C
    assert fnv1a(b"foobar") == 0xBF9CF968
    assert residual_keys("a", 0, HalfTag.WHOLE) == {fnv1a(b"\x00a")}
    assert residual_keys("a", 0, HalfTag.PREFIX) == {fnv1a(b"\x01a")}
    assert residual_keys("a", 0, HalfTag.SUFFIX) == {fnv1a(b"\x02a")}


def test_hash_residual_deterministic_and_tagged():
    assert residual_keys("res", 0, HalfTag.WHOLE) == residual_keys("res", 0, HalfTag.WHOLE)
    keys = set().union(*(residual_keys("a", 0, tag) for tag in HalfTag))
    assert len(keys) == 3
    assert residual_keys("a", 0, HalfTag.PREFIX) != residual_keys("a", 0, HalfTag.SUFFIX)


def test_hash_residual_code_points():
    # Each character is one FNV step by its code point, whatever its UTF-8
    # length; format version 4 and earlier hashed the UTF-8 bytes instead.
    assert residual_keys("ü", 0, HalfTag.WHOLE) != residual_keys("u", 0, HalfTag.WHOLE)
    assert residual_keys("ü", 0, HalfTag.WHOLE) != {fnv1a(b"\x00\xc3\xbc")}
    for word in ("ü", "münchen", "\U0001D11E"):  # the last is 4 bytes in UTF-8
        for tag in HalfTag:
            (key,) = residual_keys(word, 0, tag)
            assert key == fnv1a([tag, *map(ord, word)]), (word, tag)
            assert 0 <= key < (1 << 32)


def test_residual_keys_rejects_negative_budget():
    # The one-pass form would otherwise return the whole-word key alone.
    for word in ("", "abc"):
        with pytest.raises(ValueError):
            residual_keys(word, -1, HalfTag.WHOLE)


def test_residual_keys_match_hashed_neighborhood():
    # The one-pass keys equal FNV-1a over every residual of the enumerator,
    # for every budget 0..4 and tag. Repeated characters in {a,b} words
    # give repeated states, which the final set collapses; the last inputs
    # have code points of 2, 3 and 4 UTF-8 bytes.
    words = list(load_dictionary(bundled_words_path()).words[:3000])
    rng = random.Random(8)
    # 20k draws give 4,141 distinct {a,b} words; each is checked once.
    words += sorted({random_word(rng, 0, 12, alphabet="ab") for _ in range(20_000)})
    words += ["münchen", "straße", "a\U0001F600b\U0001F600", "€uro"]
    for word in words:
        # A residual with j deletions has len(word) - j characters, so the
        # budget-4 residuals hold those of every smaller budget.
        residuals = [(len(r), list(map(ord, r))) for r in full_neighborhood(word, 4)]
        for tag in HalfTag:
            hashed = [(length, fnv1a([tag, *r])) for length, r in residuals]
            for k in range(5):
                expected = {h for length, h in hashed if length >= len(word) - k}
                assert residual_keys(word, k, tag) == expected, (word, k, tag)


def test_residual_keys_counts():
    assert len(residual_keys("ab", 1, HalfTag.WHOLE)) == 3
    # All characters distinct: exactly sum of C(10,k) for k <= 2.
    assert len(residual_keys("abcdefghij", 2, HalfTag.WHOLE)) == 1 + 10 + 45
    assert len(residual_keys("whatever", 0, HalfTag.WHOLE)) == 1


def test_deletion_layout_fills_every_state():
    # residual_key_pairs sizes its key buffer by _state_count and
    # _hash_part fills it by the layout, so the two counts must agree, or
    # uninitialised memory would become keys.
    for length in range(15):
        for k in range(6):
            sources = _deletion_sources(length, k)
            assert 1 + sum(map(len, sources)) == _state_count(length, k), (length, k)


def test_deletion_layout_cache_is_safe_to_evict():
    # Both walkers share the cached layouts. Evicting and recomputing every
    # entry changes no key of a query or a build, and no entry is mutable.
    rng = random.Random(9)
    dictionary = Dictionary(random_unique_words(rng, 300, 1, 14))
    params = IndexParams(2, 6)
    before = FastSSIndex.build(dictionary, params)
    words = ["", "a", "abcdefg", "mississippi", "straße"]
    recorded = {(w, k): residual_keys(w, k, HalfTag.WHOLE) for w in words for k in range(4)}
    for length in range(_deletion_sources.cache_info().maxsize + 1):
        residual_keys("x" * length, 1, HalfTag.WHOLE)
    assert FastSSIndex.build(dictionary, params) == before
    assert {(w, k): residual_keys(w, k, HalfTag.WHOLE) for w, k in recorded} == recorded
    for w, k in recorded:
        sources = _deletion_sources(len(w), k)
        assert isinstance(sources, tuple), (w, k)
        assert all(isinstance(source, tuple) for source in sources), (w, k)


def test_shared_residual_filter_soundness():
    # Words within distance d share a residual reachable with at most d
    # deletions from each side. 10^4 randomly perturbed pairs.
    rng = random.Random(5)
    for _ in range(10_000):
        d = rng.randint(0, 3)
        u = random_word(rng, 0, 9)
        v = perturb_word(rng, u, rng.randint(0, d))
        assert full_edit_distance(u, v) <= d
        assert full_neighborhood(u, d) & full_neighborhood(v, d), (u, v, d)
