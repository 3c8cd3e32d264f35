import random
from functools import lru_cache

import numpy as np
import pytest

from fastss.distance import full_edit_distance, lane_distances
from helpers import perturb_word


@lru_cache(maxsize=None)
def recursive_distance(a: str, b: str) -> int:
    """Independent oracle: edit distance straight from its recursive
    definition, with no DP table to share bugs with the implementations."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        recursive_distance(a[1:], b) + 1,
        recursive_distance(a, b[1:]) + 1,
        recursive_distance(a[1:], b[1:]) + (a[0] != b[0]),
    )


def random_word(rng, max_len=12, alphabet="abcdef"):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def test_distance_to_empty_is_length():
    assert full_edit_distance("", "abc") == 3
    assert full_edit_distance("abc", "") == 3
    assert full_edit_distance("", "") == 0


def test_identity():
    assert full_edit_distance("abc", "abc") == 0
    assert full_edit_distance("übung", "übung") == 0


def test_kitten_sitting():
    # Frozen from the recursive oracle, and re-derived here.
    assert recursive_distance("kitten", "sitting") == 3
    assert full_edit_distance("kitten", "sitting") == 3


def test_unicode_codepoint_semantics():
    # One substituted code point is one edit, regardless of UTF-8 byte count.
    assert full_edit_distance("straße", "strasse") == 2
    assert full_edit_distance("münchen", "munchen") == 1


def test_full_matches_recursive_oracle():
    rng = random.Random(1)
    for _ in range(300):
        a, b = random_word(rng, 8), random_word(rng, 8)
        assert full_edit_distance(a, b) == recursive_distance(a, b)


def test_metric_properties():
    rng = random.Random(2)
    words = [random_word(rng) for _ in range(120)]
    for w in words:
        assert full_edit_distance(w, w) == 0
    checked = 0
    while checked < 10_000:
        a, b, c = (rng.choice(words) for _ in range(3))
        dab = full_edit_distance(a, b)
        assert dab == full_edit_distance(b, a)
        assert dab <= full_edit_distance(a, c) + full_edit_distance(c, b)
        assert dab >= abs(len(a) - len(b))
        checked += 1


def lanes(query, words):
    """The kernel's distances from ``query`` to each of ``words``, laid out
    as the code points of one text, each word followed by a line break, in
    the narrowest dtype that holds them, as ``Dictionary`` stores them."""
    codes = np.frombuffer("".join(w + "\n" for w in words).encode("utf-32-le"), "<u4")
    codes = codes.astype(np.min_scalar_type(int(codes.max(initial=0))))
    starts = np.cumsum([0] + [len(w) + 1 for w in words])[:-1]
    return lane_distances(query, codes, starts)


def test_lane_trivial_cases():
    assert lanes("abc", ["abc"]).tolist() == [0]
    assert lanes("abcd", ["abxd"]).tolist() == [1]
    assert lanes("aaaa", ["bbbb"]).tolist() == [4]
    assert lanes("", [""]).tolist() == [0]
    assert lanes("", ["ab"]).tolist() == [2]
    assert lanes("ab", [""]).tolist() == [2]


def risky_pairs(rng):
    """Inputs the bit-vector form could get wrong: masks wider than 64
    bits, characters absent from the query, empty sides, and code points
    outside ASCII."""
    pairs = [("straße", "strasse"), ("münchen", "munchen"),
             ("strasse", "straße"), ("munchen", "münchen"),
             ("", ""), ("", "ab"), ("ab", ""), ("abc", "xyz"), ("xyz", "abxyz")]
    for _ in range(40):
        a = "".join(rng.choice("abcd") for _ in range(rng.randint(60, 130)))
        # A few edits keep b close to a; some of them bring in characters
        # the other side never contains.
        b = perturb_word(rng, a, rng.randint(0, 5), alphabet="abcdxyzé")
        pairs += [(a, b), (b, a)]
    return pairs


@pytest.mark.parametrize("batch", range(0, 5))
def test_lane_agrees_with_full(batch):
    rng = random.Random(100 + batch)
    pairs = [(random_word(rng), random_word(rng)) for _ in range(2_000)]
    pairs += risky_pairs(rng)
    for a, b in pairs:
        assert lanes(a, [b]).tolist() == [full_edit_distance(a, b)], (a, b)


def test_lane_is_symmetric():
    rng = random.Random(7)
    for _ in range(500):
        a, b = random_word(rng), random_word(rng)
        assert lanes(a, [b]).tolist() == lanes(b, [a]).tolist() == [full_edit_distance(a, b)]


def assert_batch_agrees(query, words):
    """The kernel equals the full table on every word of one batch."""
    true = [full_edit_distance(query, w) for w in words]
    got = lanes(query, words)
    assert got.dtype == "int64" and got.tolist() == true, (query, words)


def test_batch_mixes_word_lengths_up_to_140():
    # One batch's lanes are as wide as its longest word needs, from 8 bits
    # for short words up to 144 for 140 characters; short words then share
    # a batch with far longer ones.
    rng = random.Random(11)
    for _ in range(40):
        longest = rng.randint(0, 140)
        query = random_word(rng, rng.randint(0, 40), "abcd")
        words = [random_word(rng, longest, "abcd") for _ in range(rng.randint(1, 30))]
        words += [perturb_word(rng, query, rng.randint(0, 5), alphabet="abcdxyz")]
        assert_batch_agrees(query, words)


def test_batch_non_bmp_code_points():
    rng = random.Random(12)
    alphabet = "a\U0001F600\U00010348é\U0010FFFF"
    for _ in range(60):
        query = random_word(rng, 10, alphabet)
        assert_batch_agrees(query, [random_word(rng, 12, alphabet) for _ in range(10)])


def test_batch_empty_query_and_empty_words():
    assert lanes("", []).tolist() == []
    assert lanes("ab", []).tolist() == []
    assert_batch_agrees("", ["", "a", "abc", "x" * 70])
    assert_batch_agrees("abc", ["", "abc", ""])


@pytest.mark.parametrize("query", ["abc\n", "\nabc", "a\nc", "\n", "\n\n", "ab\n\n"])
def test_batch_query_with_line_break(query):
    # No dictionary word contains "\n"; a query may, and it matches nothing
    # above a word in its lane. "abc" is one edit from "abc\n".
    rng = random.Random(13)
    words = ["abc", "ab", "a", "abcd", "x"] + [random_word(rng, 9, "abc") for _ in range(20)]
    assert_batch_agrees(query, words)
    assert lanes("abc\n", ["abc"]).tolist() == [1]


def test_batch_words_with_line_breaks_and_nul():
    # A line break ends a lane, so only the queries hold one; "\x00" is an
    # ordinary code point on both sides.
    rng = random.Random(14)
    for _ in range(60):
        query = random_word(rng, 8, "ab\n\x00")
        assert_batch_agrees(query, [random_word(rng, 12, "ab\x00") for _ in range(8)])


def test_line_break_lanes_take_every_carry():
    # The kernel reads its lanes off the line breaks. Runs of empty words,
    # an empty first and last lane (in two batches of three), one-letter
    # words and words longer than 64 characters, all of one letter, so that
    # a query of that letter carries out of every word's top row into its
    # spare bit; some queries hold a line break, which matches no row.
    rng = random.Random(15)
    for letter in "a\x00é\U0001F600":
        for batch in range(12):
            words = [""] * (batch % 3 > 0)
            for _ in range(rng.randint(1, 12)):
                words += rng.choice([[""] * rng.randint(1, 4), [letter],
                                     [letter * rng.randint(2, 64)],
                                     [letter * rng.randint(65, 140)]])
            words += [""] * (batch % 3 > 0)
            for query in (letter, letter * rng.randint(2, 150), "", "\n",
                          letter * 3 + "\n" + letter * 70, "b" + letter * rng.randint(0, 80)):
                assert_batch_agrees(query, words)
