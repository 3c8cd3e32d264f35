import random
from fractions import Fraction
from math import comb

import pytest

from fastss.analysis import CollisionModel, expected_candidates, markov_bound
from fastss.index import Dictionary, FastSSIndex, IndexParams
from helpers import random_unique_words, random_word


def test_model_validation():
    CollisionModel(0, 5, 0, 1)
    with pytest.raises(ValueError):
        CollisionModel(-1, 8, 2, 26)
    with pytest.raises(ValueError):
        CollisionModel(10, 8, 9, 26)
    with pytest.raises(ValueError):
        CollisionModel(10, 8, -1, 26)
    with pytest.raises(ValueError):
        CollisionModel(10, 8, 2, 0)
    for args, field in [((10.5, 8, 2, 26), "dictionary_size"), ((10, 8.0, 2, 26), "word_length"),
                        ((10, 8, True, 26), "max_distance"), ((10, 8, 2, 26.0), "alphabet_size")]:
        with pytest.raises(TypeError, match=field):
            CollisionModel(*args)


def test_expected_candidates_closed_forms():
    # d = 0: probability of an exact hash match, times n
    assert expected_candidates(CollisionModel(1000, 4, 0, 2)) == 1000 / 2**4
    # d = L: every empty residual collides
    assert expected_candidates(CollisionModel(777, 5, 5, 26)) == 777


def test_expected_candidates_reference_value():
    # 10^4 * C(8,2)^2 / 26^6, evaluated exactly then rounded
    exact = Fraction(10_000 * comb(8, 2) ** 2, 26 ** 6)
    assert exact == Fraction(7_840_000, 308_915_776)
    value = expected_candidates(CollisionModel(10_000, 8, 2, 26))
    assert value == pytest.approx(float(exact), rel=1e-12)
    assert value == pytest.approx(0.02538, abs=5e-6)


def test_expected_survives_huge_exponents():
    # 26^58 overflows any fixed-width integer; must still be finite/tiny.
    value = expected_candidates(CollisionModel(10**6, 60, 2, 26))
    assert 0.0 <= value < 1e-60


def test_markov_bound_basics():
    assert markov_bound(CollisionModel(10, 5, 5, 26), 1) == 1.0  # vacuous
    m = CollisionModel(10_000, 8, 2, 26)
    # P[X >= n/c] <= E[X] * c / n = c * C(8,2)^2 / 26^6: it grows with c.
    assert markov_bound(m, 10) == pytest.approx(784 * 10 / 26**6, rel=1e-12)
    assert markov_bound(m, 20) == pytest.approx(markov_bound(m, 10) * 2, rel=1e-12)
    for c in (0, -1, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="speedup"):
            markov_bound(m, c)


def test_expected_equals_n_times_markov_at_one():
    for n, length, d, sigma in [(10, 5, 2, 4), (123, 9, 3, 26), (7, 6, 0, 2)]:
        model = CollisionModel(n, length, d, sigma)
        assert expected_candidates(model) == pytest.approx(
            n * markov_bound(model, 1), rel=1e-12)


def test_monotonicity():
    base = expected_candidates(CollisionModel(100, 10, 2, 26))
    assert expected_candidates(CollisionModel(200, 10, 2, 26)) >= base
    # nondecreasing in d up to length/2
    values = [expected_candidates(CollisionModel(100, 10, d, 26))
              for d in range(0, 6)]
    assert values == sorted(values)


def test_observed_candidates_below_expectation():
    # The formula overestimates: deleting different position sets can give
    # the same residual, and word ids are deduplicated.
    rng = random.Random(40)
    n, length, d, sigma = 1500, 6, 2, 26
    words = random_unique_words(rng, n, length, length)
    idx = FastSSIndex.build(Dictionary(words), IndexParams(d))
    counts = [len(idx.candidates(random_word(rng, length, length))) for _ in range(300)]
    model = CollisionModel(n, length, d, sigma)
    assert sum(counts) / 300 <= expected_candidates(model)
    # Markov's tail at c = n: the share of queries with a candidate at all.
    assert sum(map(bool, counts)) / 300 <= markov_bound(model, n)
