import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import fastss.index
import fastss.neighborhood
from fastss.baselines import BKTree, NaiveScanner
from fastss.bench import bundled_words_path, load_dictionary, perturb
from fastss.distance import full_edit_distance, lane_distances
from fastss.index import (
    Dictionary,
    FastSSIndex,
    IndexParams,
    Match,
    Matches,
    _runs,
    split_positions,
    split_word,
)
from fastss.neighborhood import (HalfTag, _residual_plan, _state_count, full_neighborhood,
                                 residual_keys)
from helpers import LOWERCASE, perturb_word, random_unique_words, random_word, refuse_plans


def naive(dictionary, query, d):
    """Local reference: scan everything with the full-table distance."""
    out = [Match(i, full_edit_distance(w, query))
           for i, w in enumerate(dictionary)]
    return sorted((m for m in out if m.distance <= d),
                  key=lambda m: (m.distance, m.word_id))


def test_dictionary_validation():
    d = Dictionary(["b", "a", "c"])
    assert len(d) == 3 and d[1] == "a" and d.words.index("c") == 2
    assert "a" in d and "z" not in d
    with pytest.raises(ValueError):
        Dictionary(["a", "a"])
    with pytest.raises(ValueError):
        Dictionary(["a", ""])
    assert len(Dictionary([])) == 0


@pytest.mark.parametrize("word", ["a\nb", "\n", "ab\n"])
def test_dictionary_rejects_line_breaks(word):
    # The index file joins the words with "\n", so no word may contain one.
    with pytest.raises(ValueError, match="line break"):
        Dictionary(["ab", word])


@pytest.mark.parametrize("word", [b"ab", ("a", "b"), ["a", "b"], 5, None],
                         ids=["bytes", "tuple", "list", "int", "None"])
def test_dictionary_rejects_non_str_words(word):
    with pytest.raises(TypeError):
        Dictionary([word, "ab"])
    with pytest.raises(TypeError):
        Dictionary(["ab", word])


# Word lists of every code-point width, each with the dtype it is stored in.
WIDTHS = {
    "ascii": ("ab!", "uint8"),
    "latin1": ("a\xe9\xff", "uint8"),
    "bmp": ("a\u0161\u20ac", "uint16"),
    "astral": ("a\U0001d11e", "uint32"),
}


@pytest.mark.parametrize("width", [*WIDTHS, "bundled"])
def test_dictionary_round_trips_its_code_points(width):
    # The words are held once, as code points; every accessor decodes them.
    if width == "bundled":
        words, dtype = list(load_dictionary(bundled_words_path()).words), "uint8"
    else:
        alphabet, dtype = WIDTHS[width]
        words = random_unique_words(random.Random(30), 200, 1, 8, alphabet)
    dictionary = Dictionary(words)
    assert dictionary.codes.dtype == dtype
    assert dictionary.codes.tolist() == [ord(c) for w in words for c in w + "\n"]
    assert dictionary.words == tuple(words) and list(dictionary) == words
    assert [dictionary[i] for i in range(len(words))] == words
    assert dictionary[-1] == words[-1]
    with pytest.raises(IndexError):
        dictionary[len(words)]
    assert len(dictionary) == len(words)
    assert dictionary.mean_length() == sum(map(len, words)) / len(words)
    assert dictionary == Dictionary(list(words))
    assert dictionary != Dictionary(words[:-1]) and dictionary != Dictionary(words[::-1])
    for array in (dictionary.codes, dictionary.starts):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_params_validation():
    IndexParams(0)
    IndexParams(3, None)
    IndexParams(3, 4)
    IndexParams(3, 3)
    IndexParams(3, 1)
    with pytest.raises(ValueError):
        IndexParams(-1)
    with pytest.raises(ValueError):
        IndexParams(2, 0)
    # The index plan, against the rule written out here. A word is stored
    # whole with d edits when m is None or it has at most m characters, and
    # otherwise as split_word's halves with floor(d/2) each. A query probes
    # itself whole exactly when an unsplit word can match (m is None or
    # L <= m + d), and both halves at every split position, floor(d/2) each,
    # exactly when a split word can (L >= m - d + 1).
    whole, prefix, suffix = HalfTag.WHOLE, HalfTag.PREFIX, HalfTag.SUFFIX
    for d in range(6):
        for m in (None, 1, 2, 3, 6, 7, 11):
            params = IndexParams(d, m)
            for length in range(21):
                if m is None or length <= m:
                    stored = [(0, length, d, whole)]
                else:
                    cut = len(split_word("x" * length)[0])
                    stored = [(0, cut, d // 2, prefix), (cut, length, d // 2, suffix)]
                assert params.word_parts(length) == stored, (d, m, length)

                probed = []
                if m is None or length <= m + d:
                    probed.append((0, length, d, whole))
                if m is not None and length >= m - d + 1:
                    for cut in split_positions(length, d):
                        probed += [(0, cut, d // 2, prefix), (cut, length, d // 2, suffix)]
                assert params.query_parts(length) == probed, (d, m, length)


@pytest.mark.parametrize("args, field", [
    ((2.0,), "max_distance"), (("2",), "max_distance"),
    ((2, 3.0), "split_threshold"), ((2, "3"), "split_threshold"),
    ((True,), "max_distance"), ((2, True), "split_threshold"),
])
def test_params_reject_non_int(args, field):
    # Without the check, a float d fails later inside the build's range()
    # and a float m builds and searches, then fails in to_bytes. A bool is
    # an int to isinstance, but IndexParams(2, True) would split at 1.
    with pytest.raises(TypeError, match=field):
        IndexParams(*args)


def test_split_word():
    assert split_word("abcdef") == ("abc", "def")
    assert split_word("abcde") == ("abc", "de")  # longer half first
    assert split_word("ab") == ("a", "b")
    with pytest.raises(ValueError):
        split_word("a")


def test_split_positions():
    assert split_positions(10, 2) == [4, 5, 6]
    assert split_positions(9, 3) == [3, 4, 5, 6, 7]
    assert split_positions(1, 4) == [0, 1]
    assert split_positions(0, 2) == [0]
    assert split_positions(2, 6) == [0, 1, 2]  # clamped to 0..length
    assert split_positions(5, 1) == [2, 3, 4]


def test_build_pair_counts():
    idx = FastSSIndex.build(Dictionary(["abcdefghij"]), IndexParams(2))
    assert idx.stats.stored_pairs == 1 + 10 + 45

    idx = FastSSIndex.build(Dictionary(["abcdefghij"]), IndexParams(2, 5))
    # halves "abcde"/"fghij", each with budget floor(2/2)=1: 2 * (1 + 5)
    assert idx.stats.stored_pairs == 12

    for m in (None, 1, 7):
        idx = FastSSIndex.build(Dictionary(["a"]), IndexParams(0, m))
        assert idx.stats.stored_pairs == 1


def test_build_stored_pairs_equal_neighborhood_sizes():
    rng = random.Random(11)
    words = random_unique_words(rng, 60, 1, 12)
    for d in range(4):
        idx = FastSSIndex.build(Dictionary(words), IndexParams(d))
        assert idx.stats.stored_pairs == sum(
            len(full_neighborhood(w, d)) for w in words)
        # from_bytes builds the table again from the words in the file.
        assert FastSSIndex.from_bytes(idx.to_bytes()).stats == idx.stats


def reference_table(words, params):
    """The posting table as (key, id) pairs sorted by key, then id: each
    word's residual_keys, its halves' keys unioned when it is split."""
    d, m = params.max_distance, params.split_threshold
    keys, ids = [], []
    for word_id, word in enumerate(words):
        if m is None or len(word) <= m:
            word_keys = residual_keys(word, d, HalfTag.WHOLE)
        else:
            prefix, suffix = split_word(word)
            word_keys = (residual_keys(prefix, d // 2, HalfTag.PREFIX)
                         | residual_keys(suffix, d // 2, HalfTag.SUFFIX))
        keys += word_keys
        ids += [word_id] * len(word_keys)
    keys = np.array(keys, dtype=np.uint32)
    ids = np.array(ids, dtype=np.uint32)
    order = np.lexsort((ids, keys))
    return keys[order], ids[order]


@pytest.mark.parametrize("d, m", [(0, None), (1, None), (2, None), (3, None),
                                  (3, 7), (3, 3), (2, 1), (4, 3)])
def test_build_matches_per_word_residual_keys(d, m):
    # The batch build, one matrix per word length, stores exactly each
    # word's residual_keys.
    rng = random.Random(23)
    inputs = [
        load_dictionary(bundled_words_path()).words,
        # 1-, 2-, 3- and 4-byte UTF-8 characters
        random_unique_words(rng, 1500, 1, 12, alphabet="abü€𝄞ß"),
        # shorter than d, and one word of 5,051 states at d=2
        ["a", "é", "ab", "€𝄞", "abc", random_word(rng, 100, 100)],
        # one length: the whole dictionary is one matrix
        random_unique_words(rng, 3000, 6, 6),
        [],
        # repeats outnumber distinct keys: at d=3, "a" * 12 has 299 states
        # and 4 distinct residuals
        ["a" * 12, "ab" * 6, "aab" * 4, "abba" * 3],
    ]
    params = IndexParams(d, m)
    for words in inputs:
        keys, ids = reference_table(words, params)
        index = FastSSIndex.build(Dictionary(words), params)
        assert np.array_equal(np.repeat(index._keys, np.diff(index._offsets)), keys)
        assert np.array_equal(index._ids, ids)
        assert len(index._offsets) == len(index._keys) + 1


def test_build_rejects_more_states_than_32_bits_count(monkeypatch):
    # Packed ids and u32 offsets count fewer than 2**32 pairs. One
    # 40-character word at d=20 has sum(C(40, k), k <= 20) states, far past
    # both build limits; its plan alone would take 98,988,652,527,680
    # bytes, and the build refuses it before any plan or buffer is made.
    calls = refuse_plans(monkeypatch)
    with pytest.raises(ValueError, match=r"^the words' residual plans would take "
                                         r"98,988,652,527,680 bytes"):
        FastSSIndex.build(Dictionary(["a" * 40]), IndexParams(20))
    assert calls == []


def test_build_rejects_a_plan_beyond_2_28_bytes(monkeypatch):
    # A plan takes 4 bytes per state and character. One 22-character word
    # at d=22 has 2**22 states, 369 MB of plan, and is refused before any
    # plan is made; 2**21 states of 21 characters, 176 MB, are within the
    # limit. Plans are counted, never made.
    calls = refuse_plans(monkeypatch)
    with pytest.raises(ValueError, match=r"^the words' residual plans would take 369,098,752 "
                                         r"bytes, more than 268,435,456; the largest, for "
                                         r"22-character words, has 4,194,304 states$"):
        FastSSIndex.build(Dictionary(["a" * 22]), IndexParams(22))
    assert calls == []
    with pytest.raises(AssertionError, match="asked for 21 characters"):
        FastSSIndex.build(Dictionary(["a" * 21]), IndexParams(21))
    assert calls == [21]


def test_build_rejects_plans_that_together_exceed_2_28_bytes(monkeypatch):
    # The limit holds for the plans of all word lengths together, since a
    # build makes and caches one per length. At d=1 a word of 2,000 to 2,016
    # characters has a plan of about 16 MB; those of 2,000 to 2,015
    # characters take 258,053,440 bytes together, and one more length
    # crosses 2**28. Plans are counted, never made.
    calls = refuse_plans(monkeypatch)
    with pytest.raises(ValueError, match=r"^the words' residual plans would take 274,318,528 "
                                         r"bytes, more than 268,435,456; the largest, for "
                                         r"2016-character words, has 2,017 states$"):
        FastSSIndex.build(Dictionary(["a" * n for n in range(2000, 2017)]), IndexParams(1))
    assert calls == []
    with pytest.raises(AssertionError, match="asked for 2000 characters"):
        FastSSIndex.build(Dictionary(["a" * n for n in range(2000, 2016)]), IndexParams(1))
    assert calls == [2000]


def test_build_rejects_more_than_2_24_states(monkeypatch):
    # Each state takes one 8-byte pair. 20-character words at d=20 have
    # 2**20 states each and a plan of 84 MB: 16 of them reach the limit
    # and are planned, 17 are refused before any plan is made. Plans are
    # counted, never made, and the pair buffer is never written.
    words = random_unique_words(random.Random(24), 17, 20, 20)
    calls = refuse_plans(monkeypatch)
    with pytest.raises(ValueError, match=r"^the words have 17,825,792 residual states, "
                                         r"more than 16,777,216; a smaller d or split "
                                         r"threshold makes fewer$"):
        FastSSIndex.build(Dictionary(words), IndexParams(20))
    assert calls == []
    with pytest.raises(AssertionError, match="asked for 20 characters"):
        FastSSIndex.build(Dictionary(words[:16]), IndexParams(20))
    assert calls == [20]


def test_build_admits_states_in_proportion_to_its_input(monkeypatch):
    # The state limit is max(2**24, 256 per code point). 200,000 distinct
    # random words with the bundled list's length mix have about 21 M states
    # at d=3 unsplit, past 2**24 but about 13 per code point: they pass the
    # check and reach the plans. 750 20-character words at d=20 ask for about
    # 50,000 per code point and are refused before any plan. Plans are
    # counted, never made, and the pair buffer is never written.
    bundled = load_dictionary(bundled_words_path()).words
    rng = random.Random(12)
    words = {}
    while len(words) < 200_000:
        words["".join(rng.choices(LOWERCASE, k=len(rng.choice(bundled))))] = None
    dictionary = Dictionary(list(words))
    assert sum(_state_count(len(word), 3) for word in dictionary) > 1 << 24
    calls = refuse_plans(monkeypatch)
    with pytest.raises(AssertionError, match="a residual plan was asked for"):
        FastSSIndex.build(dictionary, IndexParams(3))
    assert len(calls) == 1
    hostile = Dictionary(random_unique_words(random.Random(26), 750, 20, 20))
    with pytest.raises(ValueError, match=r"^the words have 786,432,000 residual states, "
                                         r"more than 16,777,216; "):
        FastSSIndex.build(hostile, IndexParams(20))
    assert len(calls) == 1


def test_build_refuses_2_32_states_whatever_the_input(monkeypatch):
    # Ids and offsets are 32-bit, so 2**32 states are refused even where the
    # limit per code point would admit them. 4,096 20-character words at
    # d=20 have 2**20 states each, 2**32 in all. Plans are counted, never
    # made, and the pair buffer is never allocated.
    monkeypatch.setattr(fastss.neighborhood, "_STATES_PER_CODE_POINT", 1 << 40)
    words = random_unique_words(random.Random(32), 4096, 20, 20)
    calls = refuse_plans(monkeypatch)
    with pytest.raises(ValueError, match=r"^the words have 4,294,967,296 residual states, "
                                         r"more than 4,294,967,295; "):
        FastSSIndex.build(Dictionary(words), IndexParams(20))
    assert calls == []


def test_colliding_key_adds_a_candidate_that_verification_removes():
    # 32-bit keys collide: these two words, found by a birthday search over
    # 200k random 6-letter words (random.Random(25)), share their one key at
    # d=0. The query finds the other word as a candidate, and the search
    # drops it, as the scan does.
    dictionary = Dictionary(["ehvbck"])
    assert (residual_keys("ehvbck", 0, HalfTag.WHOLE) == residual_keys("xkfxbp", 0, HalfTag.WHOLE)
            == {0x02E6E350})
    idx = FastSSIndex.build(dictionary, IndexParams(0))
    assert idx.candidates("xkfxbp").tolist() == [0]
    assert idx.search("xkfxbp") == [] == NaiveScanner(dictionary).scan("xkfxbp", 0)


def test_runs_gathers_unsigned_bounds_in_any_order():
    # candidates passes uint32 offsets in probe order, not ascending; a
    # run that starts before the runs gathered ahead of it must not wrap.
    values = np.arange(100, 130)
    starts = np.array([20, 11, 7, 7, 0], dtype=np.uint32)
    stops = np.array([25, 13, 7, 10, 2], dtype=np.uint32)
    gathered, begins = _runs(values, starts, stops)
    expected = [v for a, b in zip(starts.tolist(), stops.tolist()) for v in range(100 + a, 100 + b)]
    assert gathered.tolist() == expected
    assert begins.tolist() == [0, 5, 7, 7, 10]


@pytest.mark.parametrize("d, m", [(0, None), (2, None), (2, 1)])
def test_build_rejects_lone_surrogate(d, m):
    # A lone surrogate is not a Unicode character and has no encoding, so
    # the word must raise rather than be indexed under some key.
    with pytest.raises(UnicodeEncodeError):
        FastSSIndex.build(Dictionary(["ab", "c\ud800d"]), IndexParams(d, m))


@pytest.mark.parametrize("d, m", [(1, None), (1, 1)])
def test_query_rejects_lone_surrogate(d, m):
    # Queries raise as builds do, through the whole-word probe (m=None)
    # and through the split probes (m=1), and as the exhaustive scan does.
    dictionary = Dictionary(["ab", "cd"])
    idx = FastSSIndex.build(dictionary, IndexParams(d, m))
    # "\ud800" * 10 is too long to match and is rejected without probing.
    for query in (idx.candidates, idx.search,
                  lambda q: NaiveScanner(dictionary).scan(q, d)):
        for q in ("c\ud800d", "\ud800" * 10):
            with pytest.raises(UnicodeEncodeError):
                query(q)


def test_candidates_never_share_the_posting_ids():
    # An overlong query, and any query of an empty index, get a fresh empty
    # array, not a view whose base would hand out the posting ids, which a
    # caller could then make writable.
    idx = FastSSIndex.build(Dictionary(["abc", "abd"]), IndexParams(1))
    empty = FastSSIndex.build(Dictionary([]), IndexParams(1))
    for index, query in ((idx, "q" * 10), (empty, "abc"), (idx, "abx")):
        ids = index.candidates(query)
        assert ids.dtype == np.uint32 and ids.base is None
    assert idx.candidates("q" * 10).tolist() == [] and idx.candidates("abx").tolist() == [0, 1]


def test_build_and_from_bytes_are_the_only_constructors():
    # No constructor takes a table: every index holds the table its own
    # dictionary and parameters build.
    idx = FastSSIndex.build(Dictionary(["abc", "abd"]), IndexParams(1))
    with pytest.raises(TypeError):
        FastSSIndex(idx.dictionary, idx.params, idx._keys, idx._offsets, idx._ids)


def test_table_id_lists_sorted_unique():
    rng = random.Random(12)
    words = random_unique_words(rng, 100, 1, 10, alphabet="ab")
    idx = FastSSIndex.build(Dictionary(words), IndexParams(2, 4))
    # Each key's ids are strictly ascending, so candidates can merge them
    # with one sort and drop repeats as equal neighbours.
    for run in np.split(idx._ids.astype(np.int64), idx._offsets[1:-1]):
        assert len(run) and (np.diff(run) > 0).all()


def test_posting_arrays_are_read_only():
    # Immutable after build, and after load: an in-place write to any of
    # the three posting arrays, the dictionary's two or a cached plan's two
    # raises instead of corrupting the index, and none of them can be made
    # writable again.
    d = Dictionary(["abc", "abd", "xyz"])
    idx = FastSSIndex.build(d, IndexParams(1))
    plan = _residual_plan(3, ((0, 3, 1, HalfTag.WHOLE),))
    for index in (idx, FastSSIndex.from_bytes(idx.to_bytes())):
        for array in (index.dictionary.codes, index.dictionary.starts,
                      index._keys, index._offsets, index._ids, *plan):
            with pytest.raises(ValueError):
                array.flags.writeable = True
            with pytest.raises(ValueError):
                array[0] = 0
            with pytest.raises(ValueError):
                array += 1
            with pytest.raises(ValueError):
                array.sort()
    # After the refused flips, the write that would turn "abc" into "qbc"
    # under the index, and so set it against the scan of its own
    # dictionary, still raises.
    with pytest.raises(ValueError):
        d.codes[0] = ord("q")
    assert d[0] == "abc"
    assert idx.search("abc") == NaiveScanner(d).scan("abc", 1) == [Match(0, 0), Match(1, 1)]


def test_candidates_contain_exact_word():
    rng = random.Random(13)
    words = random_unique_words(rng, 50, 1, 12)
    dictionary = Dictionary(words)
    for d, m in [(0, None), (1, None), (2, 6), (3, 8)]:
        idx = FastSSIndex.build(dictionary, IndexParams(d, m))
        for word_id, w in enumerate(words[:20]):
            assert word_id in idx.candidates(w)


def test_candidates_hello_world():
    dictionary = Dictionary(["hello", "world"])
    idx = FastSSIndex.build(dictionary, IndexParams(1))
    cands = idx.candidates("hellp")
    assert 0 in cands  # hello
    assert 1 not in cands  # world
    # matches the raw neighborhood picture
    assert full_neighborhood("hello", 1) & full_neighborhood("hellp", 1)
    assert not full_neighborhood("world", 1) & full_neighborhood("hellp", 1)


def test_candidates_are_superset_of_matches():
    rng = random.Random(14)
    words = random_unique_words(rng, 120, 1, 12)
    dictionary = Dictionary(words)
    for d, m in [(1, None), (2, 5), (3, 6), (2, 8)]:
        idx = FastSSIndex.build(dictionary, IndexParams(d, m))
        for _ in range(150):
            q = perturb_word(rng, rng.choice(words), rng.randint(0, d))
            cands = idx.candidates(q)
            for match in naive(dictionary, q, d):
                assert match.word_id in cands, (q, d, m, words[match.word_id])


def test_search_simple():
    idx = FastSSIndex.build(Dictionary(["hello"]), IndexParams(0))
    assert idx.search("hello") == [Match(0, 0)]

    dictionary = Dictionary(["hello", "jello", "world"])
    idx = FastSSIndex.build(dictionary, IndexParams(1))
    assert full_edit_distance("jello", "hellp") == 2  # excluded at d=1
    assert idx.search("hellp") == [Match(0, 1)]  # hello


def test_search_sorted_by_distance_then_id():
    dictionary = Dictionary(["abcd", "abce", "abc", "zzzz"])
    idx = FastSSIndex.build(dictionary, IndexParams(2))
    results = idx.search("abcd")
    assert results[0] == Match(0, 0)
    assert [(m[1], m[0]) for m in results] == sorted(
        (m[1], m[0]) for m in results)


def test_losslessness_against_naive():
    # The central property: identical match sets to a full scan, for every
    # combination of distance and splitting threshold.
    rng = random.Random(15)
    words = random_unique_words(rng, 150, 1, 14)
    dictionary = Dictionary(words)
    for d in range(5):
        for m in (None, max(5, d + 1), 9):
            idx = FastSSIndex.build(dictionary, IndexParams(d, m))
            for _ in range(60):
                q = perturb_word(rng, rng.choice(words), rng.randint(0, d))
                matches = idx.search(q)
                # Plain (word_id, distance) pairs, not a tuple subclass.
                assert all(type(match) is tuple for match in matches), (q, d, m)
                assert matches == naive(dictionary, q, d), (q, d, m)


def test_search_beyond_a_byte_of_distance_equals_scan():
    # Past d = 255 the match distances are sorted as uint16. An index holds
    # d in a byte, so only the scan and the BK-tree reach that path; every
    # word of 2 to 4 characters is within d of a 3-character query.
    words = ["ab", "ba", "abc", "cab", "bcad", "dcba", "aaaa", "cc"]
    dictionary = Dictionary(words)
    scanner, tree = NaiveScanner(dictionary), BKTree.build(dictionary)
    for q in ["abc", "cba", "zzz", "aab", "dcb"]:
        matches = tree.query(q, 300)[0]
        assert matches.distances.dtype == np.uint16, q
        assert len(matches) == len(words)
        assert matches == scanner.scan(q, 300) == naive(dictionary, q, 300), q


@pytest.mark.parametrize("d", [1, 2, 3])
def test_split_candidates_beyond_a_byte_of_distance_never_match(d):
    # A query that copies a long split word's prefix and replaces its last
    # 256 to 259 characters is a candidate at distance 256 to 259, which is
    # d or less modulo 256: it must not match once distances fit a byte.
    rng = random.Random(24)
    words = random_unique_words(rng, 6, 601, 640, alphabet="ab")
    dictionary = Dictionary(words)
    scanner = NaiveScanner(dictionary)
    idx = FastSSIndex.build(dictionary, IndexParams(d, 7))
    for word_id, w in enumerate(words):
        for changed in range(256, 260):
            q = w[:-changed] + "x" * changed
            assert scanner.distances(q)[word_id] == changed
            assert word_id in idx.candidates(q)
            assert idx.search(q) == scanner.scan(q, d) == [], (word_id, changed)


def test_losslessness_with_empty_and_short_queries():
    rng = random.Random(16)
    words = random_unique_words(rng, 80, 1, 9, alphabet="abc")
    dictionary = Dictionary(words)
    for d in range(4):
        for m in (None, 1, d + 1):
            idx = FastSSIndex.build(dictionary, IndexParams(d, m))
            for q in ["", "a", "ab", "abc", "zzzzzzzzzzzz"]:
                assert idx.search(q) == naive(dictionary, q, d), (q, d, m)


@pytest.mark.parametrize("d, m", [(2, None), (3, 7)], ids=["d2", "d3-m7"])
def test_search_query_with_line_break_equals_scan(d, m):
    # No word contains "\n", the character that joins them in the file; a
    # query may, and a word one deletion away must still match.
    rng = random.Random(21)
    words = random_unique_words(rng, 150, 1, 14)
    dictionary = Dictionary(words)
    scanner = NaiveScanner(dictionary)
    idx = FastSSIndex.build(dictionary, IndexParams(d, m))
    queries = ["\n", "\n\n", words[0] + "\n", "\n" + words[1], words[2][:3] + "\n" + words[2][3:]]
    queries += [perturb_word(rng, rng.choice(words), rng.randint(0, d), alphabet="ab\n")
                for _ in range(80)]
    assert any("\n" in q and idx.search(q) for q in queries)
    for q in queries:
        assert idx.search(q) == scanner.scan(q, d), (q, d, m)


@pytest.mark.parametrize("d, m", [(2, None), (3, 7)], ids=["d2", "d3-m7"])
def test_search_non_ascii_words_equals_scan(d, m):
    # Candidates are verified as one gather of code points: characters of 1 to 4
    # UTF-8 bytes and "\x00" inside words must keep every word in its lane,
    # at every word length from 1 to 60, and a query's "\n" matches none.
    rng = random.Random(23)
    alphabet = "aé中😀\x00"
    words = list(dict.fromkeys(random_word(rng, length, length, alphabet)
                               for length in range(1, 61) for _ in range(3)))
    words = list(dict.fromkeys(
        words + [perturb_word(rng, w, rng.randint(1, d), alphabet) for w in words[::2]]))
    dictionary = Dictionary(words)
    scanner = NaiveScanner(dictionary)
    idx = FastSSIndex.build(dictionary, IndexParams(d, m))
    queries = ["\n", words[0] + "\n", "\x00", words[-1]]
    queries += [perturb_word(rng, rng.choice(words), rng.randint(0, d), alphabet + "\n")
                for _ in range(120)]
    assert any("\n" in q and idx.search(q) for q in queries)
    assert sum(len(idx.candidates(q)) > 1 for q in queries) > 40
    for q in queries:
        assert idx.search(q) == scanner.scan(q, d), (q, d, m)


@pytest.mark.parametrize("d, m", [(1, None), (2, 3)])
@pytest.mark.parametrize("width", WIDTHS)
def test_search_at_every_code_point_width_equals_scan(width, d, m):
    # The kernel compares code points in the dictionary's dtype. Queries
    # hold characters beyond it whose low bits are a dictionary character:
    # U+0161 and "a", U+0121 and "!", U+01E9 and U+00E9, U+10161 and U+0161.
    alphabet, _ = WIDTHS[width]
    rng = random.Random(31)
    words = random_unique_words(rng, 150, 1, 8, alphabet)
    dictionary = Dictionary(words)
    scanner = NaiveScanner(dictionary)
    idx = FastSSIndex.build(dictionary, IndexParams(d, m))
    wide = "\u0161\u0121\u01e9\U00010161"
    queries = [w.translate({ord("a"): "\u0161", ord("!"): "\u0121"}) for w in words[:20]]
    queries += [perturb_word(rng, rng.choice(words), rng.randint(0, d + 1), alphabet + wide)
                for _ in range(150)]
    assert sum(any(c in wide for c in q) for q in queries) > 50
    for q in queries:
        assert idx.search(q) == scanner.scan(q, d) == naive(words, q, d), (q, d, m)


def test_search_calls_the_kernel_once_per_query(monkeypatch):
    # All of a query's candidates are verified in one batch, whatever their
    # number; no query falls back to a word-by-word path.
    rng = random.Random(22)
    words = random_unique_words(rng, 200, 1, 12)
    idx = FastSSIndex.build(Dictionary(words), IndexParams(2, 6))
    calls = []

    def counting(query, codes, lanes):
        distances = lane_distances(query, codes, lanes)
        calls.append(len(distances))
        return distances

    monkeypatch.setattr(fastss.index, "lane_distances", counting)
    for q in [words[0], words[1][:2], perturb_word(rng, words[2], 2), "zzzzzz"] + words[3:40]:
        calls.clear()
        idx.search(q)
        candidates = idx.candidates(q)
        if len(candidates):
            assert calls == [len(candidates)], q
    assert any(len(idx.candidates(q)) > 10 for q in words[:40])


def test_build_and_search_never_decode_the_words(monkeypatch):
    # The index reads the dictionary's code points only: a str per word
    # would be a second resident copy of the words.
    rng = random.Random(32)
    dictionary = Dictionary(random_unique_words(rng, 300, 1, 12))
    queries = [random_word(rng, 1, 14) for _ in range(40)]
    expected = [NaiveScanner(dictionary).scan(q, 2) for q in queries]

    def decoded(*args):
        raise AssertionError("the words were decoded")

    monkeypatch.setattr(Dictionary, "__iter__", decoded)
    monkeypatch.setattr(Dictionary, "__getitem__", decoded)
    monkeypatch.setattr(Dictionary, "words", property(decoded))
    for params in (IndexParams(2), IndexParams(2, 5)):
        idx = FastSSIndex.build(dictionary, params)
        assert [idx.search(q) for q in queries] == expected


def test_split_cover_property():
    # For any split word within distance d of a query, some probed split
    # position matches one half within floor(d/2) edits.
    rng = random.Random(17)
    for _ in range(400):
        w = random_word(rng, 2, 14)
        d = rng.randint(0, 4)
        q = perturb_word(rng, w, rng.randint(0, d))
        if full_edit_distance(w, q) > d:
            continue
        prefix, suffix = split_word(w)
        half = d // 2
        assert any(
            full_edit_distance(q[:cut], prefix) <= half
            or full_edit_distance(q[cut:], suffix) <= half
            for cut in split_positions(len(q), d)
        ), (w, q, d)


def test_losslessness_exhaustive_small_universe():
    # Every word of length 1..7 over {a,b} as the dictionary, every string
    # of length 0..9 over {a,b} as a query, every d in 0..4 with no split
    # and with every split threshold from 1 to the longest word: no
    # sampling, no escape hatches.
    from itertools import product

    words = ["".join(t) for n in range(1, 8) for t in product("ab", repeat=n)]
    dictionary = Dictionary(words)
    queries = ["".join(t) for n in range(10) for t in product("ab", repeat=n)]
    # The full-table reference is computed once per query, not per config.
    distances = {q: [full_edit_distance(w, q) for w in words] for q in queries}
    checks = 0
    for d in range(5):
        expected = {q: sorted((Match(i, x) for i, x in enumerate(row) if x <= d),
                              key=lambda m: (m.distance, m.word_id))
                    for q, row in distances.items()}
        for m in (None, *range(1, 8)):
            idx = FastSSIndex.build(dictionary, IndexParams(d, m))
            for q in queries:
                assert idx.search(q) == expected[q], (q, d, m)
                checks += 1
    assert checks == 40_920


def test_losslessness_exhaustive_split_words():
    # Every word of length 8 over {a,b} as the dictionary, so at d=3 and
    # m=4 or 7 every word is split and each half indexed with floor(3/2) = 1
    # edit; every string of length 5..11 over {a,b} as a query.
    from itertools import product

    words = ["".join(t) for t in product("ab", repeat=8)]
    dictionary = Dictionary(words)
    scanner = NaiveScanner(dictionary)
    for m in (4, 7):
        params = IndexParams(3, m)
        assert [k for _, _, k, _ in params.word_parts(8)] == [3 // 2, 3 // 2]
        assert all(len(w) > params.split_threshold for w in words)
        idx = FastSSIndex.build(dictionary, params)
        checks = 0
        for n in range(5, 12):
            for t in product("ab", repeat=n):
                q = "".join(t)
                assert idx.search(q) == scanner.scan(q, 3), (q, m)
                checks += 1
        assert checks == 4_064, m


def test_split_pairs_shrink_as_threshold_falls():
    # With one half budget for every threshold, splitting more words only
    # ever stores fewer pairs: at d=3 the bundled list shrinks strictly
    # from m=7 down to m=2.
    dictionary = load_dictionary(bundled_words_path())
    pairs = [FastSSIndex.build(dictionary, IndexParams(3, m)).stats.stored_pairs
             for m in (7, 6, 5, 4, 3, 2)]
    assert pairs == [453_120, 315_808, 238_976, 201_565, 184_418, 180_101]
    assert all(a > b for a, b in zip(pairs, pairs[1:]))


def test_repeated_queries_are_deterministic():
    rng = random.Random(18)
    words = random_unique_words(rng, 60, 1, 10)
    idx = FastSSIndex.build(Dictionary(words), IndexParams(2, 5))
    queries = [perturb_word(rng, rng.choice(words), rng.randint(0, 2))
               for _ in range(30)]
    first = [idx.search(q) for q in queries]
    second = [idx.search(q) for q in queries]
    assert first == second
    assert FastSSIndex.from_bytes(idx.to_bytes()).stats == idx.stats


@pytest.mark.parametrize("query", [b"ab", ("a", "b"), ["a", "b"], 5, None],
                         ids=["bytes", "tuple", "list", "int", "None"])
@pytest.mark.parametrize("d, m", [(0, None), (2, None), (3, 7)],
                         ids=["d0", "d2", "d3-m7"])
def test_non_str_query_raises_type_error(d, m, query):
    idx = FastSSIndex.build(Dictionary(["ab", "ba", "abcdefghij"]), IndexParams(d, m))
    with pytest.raises(TypeError):
        idx.search(query)
    with pytest.raises(TypeError):
        idx.candidates(query)


def test_overlong_query_enumerates_nothing(monkeypatch):
    # A query longer than the longest word plus d cannot match, so it must
    # be answered without enumerating a single residual.
    rng = random.Random(19)
    words = random_unique_words(rng, 100, 1, 14)
    dictionary = Dictionary(words)
    scanner = NaiveScanner(dictionary)
    longest = max(words, key=len)
    indexes = {(d, m): FastSSIndex.build(dictionary, IndexParams(d, m))
               for d in range(4) for m in (None, d + 4)}
    # At the bound itself the query is still enumerated and can match.
    for (d, m), idx in indexes.items():
        q = longest + "z" * d
        assert idx.search(q) == scanner.scan(q, d), (d, m)
        assert Match(words.index(longest), d) in idx.search(q)

    def refuse(*args):
        raise AssertionError("a residual plan was asked for an overlong query")

    monkeypatch.setattr(fastss.index, "_residual_plan", refuse)
    for (d, m), idx in indexes.items():
        for q in ["q" * 120, "y" * (len(longest) + d + 1)]:
            assert idx.search(q) == [] == scanner.scan(q, d), (q, d, m)


def test_only_a_refused_plan_sends_a_query_to_the_length_window(monkeypatch):
    # A plan over its byte budget is answered from the words within d
    # characters of the query's length. Any other error of the plan maker,
    # such as numpy's for a shape mismatch, must surface from search, not
    # turn every query into a scan of that window.
    idx = FastSSIndex.build(Dictionary(["abc", "abd", "xyz"]), IndexParams(1))

    def broken(length, parts):
        raise ValueError("shape mismatch")

    monkeypatch.setattr(fastss.index, "_residual_plan", broken)
    for query in ("abc", "xy"):
        with pytest.raises(ValueError, match="^shape mismatch$"):
            idx.search(query)


@pytest.mark.parametrize("d, m", [(2, None), (3, 7)], ids=["d2", "d3-m7"])
def test_search_returns_matches_of_fresh_arrays(d, m):
    # The answer is two arrays equal to the scan's, in (distance, id)
    # order, that read as a sequence of plain int pairs and share no memory
    # with the dictionary or the posting table.
    dictionary = load_dictionary(bundled_words_path())
    idx = FastSSIndex.build(dictionary, IndexParams(d, m))
    scanner = NaiveScanner(dictionary)
    held = [dictionary.codes, dictionary.starts, idx._keys, idx._offsets, idx._ids]
    for query in perturb(dictionary, 12, d, seed=29).queries:
        answer = idx.search(query)
        assert isinstance(answer, Matches)
        assert answer.word_ids.dtype == np.intp and answer.distances.dtype == np.uint8
        expected = scanner.scan(query, d)
        assert np.array_equal(answer.word_ids, [match.word_id for match in expected])
        assert np.array_equal(answer.distances, [match.distance for match in expected])
        order = np.lexsort((answer.word_ids, answer.distances))
        assert np.array_equal(order, np.arange(len(answer))), query
        assert not any(np.shares_memory(array, other)
                       for array in (answer.word_ids, answer.distances) for other in held)

        pairs = list(answer)
        assert len(answer) == len(pairs) == len(expected) and bool(answer)
        assert all(type(i) is int and type(k) is int for i, k in pairs)
        assert answer[0] == pairs[0] and answer[-1] == pairs[-1]
        assert type(answer[0][0]) is int and type(answer[0][1]) is int
        rest = answer[1:]
        assert isinstance(rest, Matches) and list(rest) == pairs[1:]
        assert rest != answer and rest != expected and rest == expected[1:]
        # Equal answers need equal distances, not only equal ids.
        assert answer == Matches(answer.word_ids.copy(), answer.distances.copy())
        assert answer != Matches(answer.word_ids, answer.distances + 1)
        assert answer != [(i, k + 1) for i, k in pairs]

    overlong = "q" * 200
    nothing = "q" * 10  # no word shares a residual with it
    assert not len(idx.candidates(overlong)) and not len(idx.candidates(nothing))
    for query in (overlong, nothing):
        answer = idx.search(query)
        assert not answer and len(answer) == 0 and list(answer) == []
        assert answer == [] == scanner.scan(query, d)
        assert answer.word_ids.dtype == np.intp and answer.distances.dtype == np.uint8
        assert answer == Matches(np.empty(0, np.intp), np.empty(0, np.uint8))


def test_one_index_answers_alike_from_four_threads(monkeypatch):
    # An index may be queried from any number of threads. Four threads run
    # the same 300 queries on one index while the plan cache clears under
    # them: the bound of 50,000 bytes is above the largest of their 16
    # plans (9,440 bytes) and below all of them together (54,192 bytes).
    index = FastSSIndex.build(load_dictionary(bundled_words_path()), IndexParams(3, 7))
    queries = perturb(index.dictionary, 300, 3, seed=5).queries
    expected = [index.search(query) for query in queries]
    monkeypatch.setattr(fastss.neighborhood, "_PLAN_BYTES", 50_000)
    _residual_plan.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            answers = list(pool.map(lambda _: [index.search(q) for q in queries], range(4),
                                    timeout=60))
        info = _residual_plan.cache_info()
    finally:
        sys.setswitchinterval(interval)
        _residual_plan.cache_clear()
    assert answers == [expected] * 4
    # A clear resets the count, so fewer than the 1,200 lookups are left.
    assert info.hits + info.misses < 4 * len(queries)


def test_large_answer_holds_no_object_per_match():
    # At (3, 7), "ab" is within 3 edits of thousands of bundled words; its
    # answer must hold about the bytes of its two arrays, not a Python
    # object per match.
    idx = FastSSIndex.build(load_dictionary(bundled_words_path()), IndexParams(3, 7))
    idx.search("ab")  # caches the query's residual plan
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        answer = idx.search("ab")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(answer) >= 1000
    assert held <= 16 * len(answer), (held, len(answer))
