import random
from functools import lru_cache

import pytest

from fastss.distance import edit_distance_verifier, edit_distances, full_edit_distance
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


# The test_banded_* names date from the banded DP this verifier replaced;
# the contract they check is unchanged.

def test_banded_trivial_cases():
    assert edit_distance_verifier("abc", 0)("abc") == 0
    assert edit_distance_verifier("abcd", 1)("abxd") == 1  # full DP gives 1
    assert edit_distance_verifier("aaaa", 2)("bbbb") is None  # full DP gives 4
    assert edit_distance_verifier("", 0)("") == 0
    assert edit_distance_verifier("", 1)("ab") is None
    assert edit_distance_verifier("", 2)("ab") == 2
    assert edit_distance_verifier("ab", 2)("") == 2


def test_banded_rejects_negative_bound():
    with pytest.raises(ValueError):
        edit_distance_verifier("a", -1)
    with pytest.raises(ValueError):
        edit_distance_verifier("", -1)


def risky_pairs(rng):
    """Inputs the bit-vector form could get wrong: masks wider than 64
    bits, characters absent from the query, empty sides, and code points
    outside ASCII."""
    pairs = [("straße", "strasse"), ("münchen", "munchen"),
             ("strasse", "straße"), ("munchen", "münchen"),
             ("", ""), ("", "ab"), ("ab", ""), ("abc", "xyz"), ("xyz", "abxyz")]
    for _ in range(40):
        a = "".join(rng.choice("abcd") for _ in range(rng.randint(60, 130)))
        # A few edits keep b within reach of small bounds; some of them
        # bring in characters the other side never contains.
        b = perturb_word(rng, a, rng.randint(0, 5), alphabet="abcdxyzé")
        pairs += [(a, b), (b, a)]
    return pairs


@pytest.mark.parametrize("bound", range(0, 5))
def test_banded_agrees_with_full(bound):
    rng = random.Random(100 + bound)
    pairs = [(random_word(rng), random_word(rng)) for _ in range(2_000)]
    pairs += risky_pairs(rng)
    for a, b in pairs:
        true = full_edit_distance(a, b)
        got = edit_distance_verifier(a, bound)(b)
        if true <= bound:
            assert got == true, (a, b, bound)
        else:
            assert got is None, (a, b, bound)


def test_banded_is_symmetric():
    rng = random.Random(7)
    for _ in range(500):
        a, b = random_word(rng), random_word(rng)
        for bound in (0, 1, 3):
            assert (edit_distance_verifier(a, bound)(b)
                    == edit_distance_verifier(b, bound)(a))


def assert_batch_agrees(query, words):
    """edit_distances equals the full table on every word, and so does the
    verifier at every bound from 0 to 5."""
    true = [full_edit_distance(query, w) for w in words]
    got = edit_distances(query, words)
    assert got.dtype == "int64" and got.tolist() == true, (query, words)
    for bound in range(6):
        verify = edit_distance_verifier(query, bound)
        assert [verify(w) for w in words] == [t if t <= bound else None for t in true]


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
    assert edit_distances("", []).tolist() == []
    assert edit_distances("ab", []).tolist() == []
    assert_batch_agrees("", ["", "a", "abc", "x" * 70])
    assert_batch_agrees("abc", ["", "abc", ""])


@pytest.mark.parametrize("query", ["abc\n", "\nabc", "a\nc", "\n", "\n\n", "ab\n\n"])
def test_batch_query_with_line_break(query):
    # No dictionary word contains "\n"; a query may, and it matches nothing
    # above a word in its lane. "abc" is one edit from "abc\n".
    rng = random.Random(13)
    words = ["abc", "ab", "a", "abcd", "x"] + [random_word(rng, 9, "abc") for _ in range(20)]
    assert_batch_agrees(query, words)
    assert edit_distances("abc\n", ["abc"]).tolist() == [1]


def test_batch_words_with_line_breaks_and_nul():
    # The kernel itself takes any strings: its padding is no code point.
    rng = random.Random(14)
    for _ in range(60):
        query = random_word(rng, 8, "ab\n\x00")
        assert_batch_agrees(query, [random_word(rng, 12, "ab\n\x00") for _ in range(8)])
