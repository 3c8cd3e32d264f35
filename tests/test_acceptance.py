"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Everything here is deterministic (fixed seeds). Wall-clock query times are
deliberately not asserted anywhere: they land in benchmark CSV reports for
inspection, while these tests pin down the behavior that must hold on any
machine: exact losslessness, exact pair counts, the collision-model bound,
the splitting space reduction, the baseline search-space gap, and
serialization round-trips.
"""

import functools
import random

import numpy as np
import pytest

from fastss.analysis import CollisionModel, expected_candidates
from fastss.baselines import BKTree, NaiveScanner
from fastss.bench import bundled_words_path, load_dictionary, perturb
from fastss.distance import full_edit_distance, lane_distances
from fastss.index import Dictionary, FastSSIndex, IndexParams, split_word
from helpers import perturb_word, random_unique_words, random_word

SEED = 8_2026


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} FAIL — {title}")
                raise
            print(f"\nACCEPTANCE {number} PASS — {title}"
                  + (f" ({detail})" if detail else ""))
        return wrapper
    return decorate


@pytest.fixture(scope="module")
def bundled_dictionary():
    return load_dictionary(bundled_words_path())


@pytest.fixture(scope="module")
def bundled_scanner(bundled_dictionary):
    return NaiveScanner(bundled_dictionary)


@pytest.fixture(scope="module")
def random_dictionary():
    rng = random.Random(SEED)
    return Dictionary(random_unique_words(rng, 2000, 4, 14))


@criterion(1, "losslessness: index results equal exhaustive scan exactly")
def test_criterion_1_losslessness(random_dictionary, bundled_dictionary,
                                  bundled_scanner):
    checks = 0
    datasets = [
        ("random2k", random_dictionary, NaiveScanner(random_dictionary)),
        ("bundled20k", bundled_dictionary, bundled_scanner),
    ]
    for name, dictionary, scanner in datasets:
        for d in (0, 1, 2, 3):
            workload = perturb(dictionary, 500, d, seed=SEED + d)
            expected = [scanner.scan(query, d) for query in workload.queries]
            for m in (None, 8, 10):
                index = FastSSIndex.build(dictionary, IndexParams(d, m))
                for query, reference in zip(workload.queries, expected):
                    got = index.search(query)
                    assert got == reference, (name, query, d, m)
                    checks += 1
    assert checks == 2 * 4 * 3 * 500
    return f"{checks} query comparisons, 0 mismatches"


@criterion(2, "bit-vector kernel agrees with the full table on every pair")
def test_criterion_2_band_full_equivalence():
    rng = random.Random(SEED + 10)
    one_lane = np.zeros(1, np.int64)
    pairs = 0
    while pairs < 100_000:
        a = random_word(rng, 0, 15)
        if pairs % 2:
            b = random_word(rng, 0, 15)
        else:
            b = perturb_word(rng, a, rng.randint(0, 6))[:15]
        codes = np.frombuffer((b + "\n").encode("ascii"), np.uint8)
        assert lane_distances(a, codes, one_lane).tolist() == [full_edit_distance(a, b)], (a, b)
        pairs += 1
    return f"{pairs} pairs"


@criterion(3, "stored pair counts match the binomial sums exactly")
def test_criterion_3_residual_counting():
    rng = random.Random(SEED + 20)
    from math import comb

    def whole_count(length, d):
        return sum(comb(length, k) for k in range(min(d, length) + 1))

    alphabet = "abcdefghijklmnopqrstuvwxyz"
    words = []
    seen = set()
    while len(words) < 100:
        length = rng.randint(4, 14)
        word = "".join(rng.sample(alphabet, length))  # all characters distinct
        if word not in seen:
            seen.add(word)
            words.append(word)
    dictionary = Dictionary(words)

    checked = 0
    for d in range(5):
        index = FastSSIndex.build(dictionary, IndexParams(d))
        assert index.stats.stored_pairs == sum(
            whole_count(len(w), d) for w in words)
        checked += 1

        m = 7
        # Each half gets floor(d/2) edits.
        half = d // 2
        index = FastSSIndex.build(dictionary, IndexParams(d, m))
        expected = 0
        for w in words:
            if len(w) <= m:
                expected += whole_count(len(w), d)
            else:
                prefix, suffix = split_word(w)
                expected += whole_count(len(prefix), half)
                expected += whole_count(len(suffix), half)
        assert index.stats.stored_pairs == expected
        checked += 1
    return f"100 distinct-character words, {checked} configurations, exact"


@criterion(4, "observed candidate counts stay within the collision model")
def test_criterion_4_collision_model():
    rng = random.Random(SEED + 30)
    n, length, d, sigma = 10_000, 8, 2, 26
    model = CollisionModel(n, length, d, sigma)
    expectation = expected_candidates(model)
    assert expectation == pytest.approx(0.02538, abs=5e-6)

    words = random_unique_words(rng, n, length, length)
    index = FastSSIndex.build(Dictionary(words), IndexParams(d))
    total = 0
    queries = 1000
    for _ in range(queries):
        total += len(index.candidates(random_word(rng, length, length)))
    mean = total / queries
    assert mean <= 2.0 * expectation, (mean, expectation)
    return f"mean {mean:.5f} <= 2.0 x E = {2 * expectation:.5f}"


@criterion(5, "splitting at the mean word length shrinks the index")
def test_criterion_5_split_space_reduction(bundled_dictionary):
    d = 3
    m = round(bundled_dictionary.mean_length())
    unsplit = FastSSIndex.build(bundled_dictionary, IndexParams(d))
    split = FastSSIndex.build(bundled_dictionary, IndexParams(d, m))
    ratio = split.stats.stored_pairs / unsplit.stats.stored_pairs
    assert ratio <= 0.6, ratio
    return (f"m={m}: {split.stats.stored_pairs} / "
            f"{unsplit.stats.stored_pairs} pairs = {ratio:.3f} <= 0.6")


@criterion(6, "BK-tree search space dwarfs the index candidate sets")
def test_criterion_6_baseline_gap(bundled_dictionary):
    d = 2
    queries = 250
    tree = BKTree.build(bundled_dictionary)
    index = FastSSIndex.build(bundled_dictionary, IndexParams(d))
    workload = perturb(bundled_dictionary, queries, d, seed=SEED + 40)
    bk_total = 0
    fastss_total = 0
    for query in workload.queries:
        bk_matches, computations = tree.query(query, d)
        bk_total += computations
        candidates = index.candidates(query)
        fastss_total += len(candidates)
        assert bk_matches == index.search(query)
    bk_mean = bk_total / queries
    fastss_mean = fastss_total / queries
    assert bk_mean >= 10 * fastss_mean, (bk_mean, fastss_mean)
    return (f"BK {bk_mean:.0f} distance computations vs "
            f"{fastss_mean:.1f} verified candidates per query "
            f"({bk_mean / fastss_mean:.1f}x)")


@criterion(7, "serialization round-trips; query times reported, not asserted")
def test_criterion_7_serialization_round_trip():
    rng = random.Random(SEED + 50)
    for _ in range(50):
        words = random_unique_words(rng, rng.randint(1, 80), 1, 14)
        d = rng.randint(0, 4)
        m = rng.choice([None, rng.randint(d + 1, 14)])
        index = FastSSIndex.build(Dictionary(words), IndexParams(d, m))
        assert FastSSIndex.from_bytes(index.to_bytes()) == index
    return "50 random indexes, byte-exact round trips"
