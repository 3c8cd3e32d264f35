import random
from itertools import product

import pytest

from fastss.baselines import BKTree, NaiveScanner
from fastss.distance import full_edit_distance
from fastss.index import Dictionary, FastSSIndex, IndexParams, Match
from helpers import perturb_word, random_unique_words, random_word


def test_naive_scan_simple():
    assert NaiveScanner(Dictionary(["a", "b"])).scan("a", 0) == [Match(0, 0)]
    assert NaiveScanner(Dictionary([])).scan("anything", 3) == []
    scanner = NaiveScanner(Dictionary(["ab", "ba", "zz"]))
    assert scanner.scan("ab", 2) == [Match(0, 0), Match(1, 2), Match(2, 2)]
    assert scanner.scan("ab", 1) == [Match(0, 0)]


def test_scanner_distances_match_scalar():
    rng = random.Random(30)
    words = random_unique_words(rng, 80, 1, 14)
    scanner = NaiveScanner(Dictionary(words))
    for _ in range(40):
        q = random_word(rng, 0, 14)
        dists = scanner.distances(q)
        for i, w in enumerate(words):
            assert dists[i] == full_edit_distance(w, q), (w, q)


def test_scanner_distances_match_scalar_unicode():
    words = ["münchen", "muenchen", "köln", "værøy", "straße"]
    scanner = NaiveScanner(Dictionary(words))
    for q in ["munchen", "koln", "strasse", "", "münchén"]:
        dists = scanner.distances(q)
        for i, w in enumerate(words):
            assert dists[i] == full_edit_distance(w, q), (w, q)


def test_scanner_distances_match_scalar_past_the_int16_bound():
    # The DP's dtype depends on the query alone: its shifted values stay
    # within ±(len(query) + 1) however long the words are, so int8 holds
    # these 30,000-character words.
    words = ["a" * 29_998, "ab" * 14_999, "b"]
    scanner = NaiveScanner(Dictionary(words))
    for q in ["", "a", "ab", "ba", "bab", "bbbbb"]:
        assert scanner.distances(q).tolist() == [full_edit_distance(w, q) for w in words], q


@pytest.mark.parametrize("length", [126, 127, 128, 32_766, 32_767, 32_768])
def test_scanner_distances_match_scalar_at_the_dtype_switches(length):
    # The DP runs in int8 up to 126 query characters, in int16 up to 32,766
    # and in int32 beyond. Its values reach ±len(query), so 128 and 32,768
    # characters overflow a dtype one step too narrow. Short words keep the
    # scalar reference cheap.
    words = ["a", "ab", "bbbbb"]
    scanner = NaiveScanner(Dictionary(words))
    for q in ["b" * length, "ab" + "c" * (length - 2)]:
        assert scanner.distances(q).tolist() == [full_edit_distance(w, q) for w in words]


@pytest.mark.parametrize("words", [["a", "ab", "bbbbb"], ["ā", "āb", "šbbbb"]])
def test_scanner_never_reads_the_padding(words):
    # Words shorter than the longest one are zero-padded. Each query holds
    # the pad's code point or one too wide for the ASCII words' uint8.
    scanner = NaiveScanner(Dictionary(words))
    for q in ["\x00", "a\x00", "ā", "Ā", "\U00010161", "\U00010000"]:
        assert scanner.distances(q).tolist() == [full_edit_distance(w, q) for w in words], q


def test_naive_agrees_with_index_both_directions():
    rng = random.Random(32)
    words = random_unique_words(rng, 120, 1, 12)
    dictionary = Dictionary(words)
    scanner = NaiveScanner(dictionary)
    cases = 0
    for d, m in [(0, None), (1, None), (2, 6), (3, 7)]:
        idx = FastSSIndex.build(dictionary, IndexParams(d, m))
        for _ in range(250):
            q = perturb_word(rng, rng.choice(words), rng.randint(0, d))
            assert idx.search(q) == scanner.scan(q, d), (q, d, m)
            cases += 1
    assert cases == 1000


def test_bk_single_word():
    tree = BKTree.build(Dictionary(["solo"]))
    assert tree.query("solo", 0) == ([Match(0, 0)], 1)
    assert tree._children == [{}]


def test_bk_empty_dictionary_rejected():
    with pytest.raises(ValueError):
        BKTree.build(Dictionary([]))
    # build is the only constructor: no tree is made from unchecked parts.
    with pytest.raises(TypeError):
        BKTree((), [])


def test_bk_build_is_deterministic():
    words = ["book", "books", "cake", "boo", "cape", "cart"]
    t1 = BKTree.build(Dictionary(words))
    t2 = BKTree.build(Dictionary(words))
    q = "bok"
    assert t1.query(q, 2) == t2.query(q, 2)


def test_bk_structure_invariants():
    rng = random.Random(33)
    for _ in range(20):
        words = random_unique_words(rng, rng.randint(1, 80), 1, 10)
        tree = BKTree.build(Dictionary(words))
        # Every word is reached exactly once from the root, and every edge
        # label is the exact distance between the words at its ends.
        reached = [0]
        for node in reached:
            for label, child in tree._children[node].items():
                assert label == full_edit_distance(words[node], words[child])
                reached.append(child)
            assert len(reached) <= len(words)  # a cycle would never end
        assert sorted(reached) == list(range(len(words)))


def test_bk_results_equal_naive():
    rng = random.Random(34)
    words = random_unique_words(rng, 100, 1, 10)
    dictionary = Dictionary(words)
    tree = BKTree.build(dictionary)
    scanner = NaiveScanner(dictionary)
    for _ in range(200):
        q = perturb_word(rng, rng.choice(words), rng.randint(0, 3))
        d = rng.randint(0, 3)
        matches, computations = tree.query(q, d)
        assert matches == scanner.scan(q, d)
        assert computations <= len(dictionary)
        assert computations >= 1


def test_bk_pruning_soundness_exhaustive():
    # Complete universe: pruning may never cut a subtree holding a match.
    words = ["".join(t) for n in range(1, 4) for t in product("ab", repeat=n)]
    dictionary = Dictionary(words)
    tree = BKTree.build(dictionary)
    scanner = NaiveScanner(dictionary)
    queries = ["".join(t) for n in range(5) for t in product("ab", repeat=n)]
    for q in queries:
        for d in range(4):
            matches, _ = tree.query(q, d)
            assert matches == scanner.scan(q, d), (q, d)


@pytest.mark.parametrize("query", [b"ab", ("a", "b"), ["a", "b"], 5, None],
                         ids=["bytes", "tuple", "list", "int", "None"])
def test_baselines_reject_non_str_query(query):
    dictionary = Dictionary(["ab", "ba"])
    scanner = NaiveScanner(dictionary)
    with pytest.raises(TypeError):
        scanner.distances(query)
    with pytest.raises(TypeError):
        scanner.scan(query, 1)
    with pytest.raises(TypeError):
        BKTree.build(dictionary).query(query, 1)
