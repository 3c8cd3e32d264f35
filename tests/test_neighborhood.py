import random
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

import fastss.neighborhood
from fastss.bench import bundled_words_path, load_dictionary
from fastss.distance import full_edit_distance
from fastss.index import Dictionary, FastSSIndex, IndexParams
from fastss.neighborhood import (
    HalfTag,
    _code_points,
    _residual_plan,
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
    for budget in (True, 1.5):
        with pytest.raises(TypeError, match="max_deletions"):
            full_neighborhood("abc", budget)


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


def polynomial_key(tag: HalfTag, residual: str) -> int:
    """The residual key by its definition, (C[tag] + sum of (code point
    + 1) * P**(t + 1)) mod 2**32, in Python ints, written out independently
    of the library."""
    key = {"WHOLE": 0x6A09E667, "PREFIX": 0xBB67AE85, "SUFFIX": 0x3C6EF372}[tag.name]
    for t, char in enumerate(residual):
        key += (ord(char) + 1) * pow(0x9E3779B1, t + 1)
    return key % (1 << 32)


def test_hash_residual_reference_values():
    # Worked by hand: the empty residual is its tag's offset alone, and
    # "a" adds (97 + 1) * P = 98 * 0x9E3779B1 = 0x3C913C95C2.
    assert residual_keys("", 0, HalfTag.WHOLE) == {0x6A09E667}
    assert residual_keys("", 0, HalfTag.PREFIX) == {0xBB67AE85}
    assert residual_keys("", 0, HalfTag.SUFFIX) == {0x3C6EF372}
    assert residual_keys("a", 0, HalfTag.WHOLE) == {0xFB467C29}
    for tag in HalfTag:
        assert residual_keys("ab", 0, tag) == {polynomial_key(tag, "ab")}
    # The + 1 counts the length: a trailing or lone NUL still changes the key.
    keys = [residual_keys(word, 0, HalfTag.WHOLE) for word in ("", "\x00", "a", "a\x00")]
    assert len(set().union(*keys)) == 4


def test_hash_residual_deterministic_and_tagged():
    assert residual_keys("res", 0, HalfTag.WHOLE) == residual_keys("res", 0, HalfTag.WHOLE)
    keys = set().union(*(residual_keys("a", 0, tag) for tag in HalfTag))
    assert len(keys) == 3
    assert residual_keys("a", 0, HalfTag.PREFIX) != residual_keys("a", 0, HalfTag.SUFFIX)


def test_hash_residual_code_points():
    # Each character is one term by its code point, whatever its UTF-8
    # length; format version 4 and earlier hashed the UTF-8 bytes instead.
    # Every layer reads a str's code points as little-endian uint32.
    text = "a\U0001F600é"
    assert _code_points(text).tolist() == [ord(c) for c in text]
    assert _code_points(text).dtype == np.dtype("<u4")
    assert residual_keys("ü", 0, HalfTag.WHOLE) != residual_keys("u", 0, HalfTag.WHOLE)
    assert residual_keys("ü", 0, HalfTag.WHOLE) != {polynomial_key(HalfTag.WHOLE, "\xc3\xbc")}
    for word in ("ü", "münchen", "\U0001D11E", "\U0010FFFF" * 3):  # 4 bytes in UTF-8
        for tag in HalfTag:
            (key,) = residual_keys(word, 0, tag)
            assert key == polynomial_key(tag, word), (word, tag)
            assert 0 <= key < (1 << 32)


def test_residual_keys_rejects_negative_budget():
    # The one-pass form would otherwise return the whole-word key alone.
    for word in ("", "abc"):
        with pytest.raises(ValueError):
            residual_keys(word, -1, HalfTag.WHOLE)
        for budget in (True, 1.5):
            with pytest.raises(TypeError, match="max_deletions"):
                residual_keys(word, budget, HalfTag.WHOLE)


def test_residual_keys_match_hashed_neighborhood():
    # The keys equal the definition over every residual of the enumerator,
    # for every budget 0..4 and tag, on words of 0 to 12 characters. Words
    # over {a,b} repeat residuals, which the set collapses; the others mix
    # code points of every width: ASCII, NUL, Latin-1, the BMP and astral.
    words = list(load_dictionary(bundled_words_path()).words[:3000])
    rng = random.Random(8)
    # 20k draws give 4,141 distinct {a,b} words; each is checked once.
    words += sorted({random_word(rng, 0, 12, alphabet="ab") for _ in range(20_000)})
    wide = "az\x00\x7f\xe9\xff\u20ac\uffff\U0001F600\U0010FFFF"
    words += sorted({random_word(rng, 0, 12, alphabet=wide) for _ in range(600)})
    for word in words:
        # A residual with j deletions has len(word) - j characters, so the
        # budget-4 residuals hold those of every smaller budget.
        residuals = full_neighborhood(word, 4)
        for tag in HalfTag:
            keyed = [(len(r), polynomial_key(tag, r)) for r in residuals]
            for k in range(5):
                expected = {key for length, key in keyed if length >= len(word) - k}
                assert residual_keys(word, k, tag) == expected, (word, k, tag)


def test_residual_keys_counts():
    assert len(residual_keys("ab", 1, HalfTag.WHOLE)) == 3
    # All characters distinct: exactly sum of C(10,k) for k <= 2.
    assert len(residual_keys("abcdefghij", 2, HalfTag.WHOLE)) == 1 + 10 + 45
    assert len(residual_keys("whatever", 0, HalfTag.WHOLE)) == 1


def test_deletion_layout_fills_every_state():
    # residual_key_pairs sizes its key buffer by _state_count and fills it
    # with one product by the cached residual plan, so the two counts must
    # agree, or uninitialised memory would become keys.
    for length in range(15):
        for k in range(6):
            parts = IndexParams(k, 4).query_parts(length) + IndexParams(k, 4).word_parts(length)
            weights, offsets = _residual_plan(length, tuple(parts))
            rows = sum(_state_count(stop - start, budget) for start, stop, budget, _ in parts)
            assert weights.shape == (rows, length) and offsets.shape == (rows,), (length, k)


def test_deletion_layout_cache_is_safe_to_evict():
    # Queries and builds share the cached residual plans: none can be
    # written to, and evicting and making them afresh changes no key of a
    # query or a build.
    for length in range(15):
        for k in range(6):
            parts = tuple(IndexParams(k, 4).query_parts(length))
            for array in _residual_plan(length, parts):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0
    rng = random.Random(9)
    dictionary = Dictionary(random_unique_words(rng, 300, 1, 14))
    params = IndexParams(2, 6)
    before = FastSSIndex.build(dictionary, params)
    queries = ["", "a", "abcdefg", "mississippi", "straße", "abcdefghijkl"]
    recorded = {(w, k): residual_keys(w, k, HalfTag.WHOLE) for w in queries for k in range(4)}
    candidates = {w: before.candidates(w).tolist() for w in queries}
    for length in range(_residual_plan.cache_info().maxsize + 1):
        residual_keys("x" * length, 1, HalfTag.WHOLE)
    assert FastSSIndex.build(dictionary, params) == before
    _residual_plan.cache_clear()
    assert FastSSIndex.build(dictionary, params) == before
    _residual_plan.cache_clear()
    assert {w: before.candidates(w).tolist() for w in queries} == candidates
    assert {(w, k): residual_keys(w, k, HalfTag.WHOLE) for w, k in recorded} == recorded


def test_plan_cache_is_bounded_by_bytes(monkeypatch):
    # The cached plans take at most _PLAN_BYTES together: a miss that would
    # pass it clears the cache first. With the bound at 1 MiB, 40 plans of
    # 160 to 229 kB (7.8 MB together) leave at most 1 MiB of plans held, as
    # tracemalloc counts it; the cache alone would keep all 40.
    monkeypatch.setattr(fastss.neighborhood, "_PLAN_BYTES", 1 << 20)
    _residual_plan.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = sum(_residual_plan(n, ((0, n, 1, HalfTag.WHOLE),))[0].nbytes
                   for n in range(200, 240))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        _residual_plan.cache_clear()
    assert made == sum(4 * (n + 1) * n for n in range(200, 240)) > 7 << 20
    assert held < (1 << 20) + (64 << 10)


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
