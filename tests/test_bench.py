import csv
import random

import pytest

from fastss.bench import (
    CSV_HEADER,
    LosslessnessError,
    bundled_words_path,
    compare_baselines,
    load_dictionary,
    perturb,
    run_benchmark,
    write_csv,
)
from fastss.baselines import NaiveScanner
from fastss.index import Dictionary, FastSSIndex, IndexParams
from helpers import random_unique_words


@pytest.fixture
def small_dictionary():
    rng = random.Random(50)
    return Dictionary(random_unique_words(rng, 200, 2, 12))


def test_load_dictionary_dedup_and_order(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("a\nb\na\n\nc\nb\n")
    assert load_dictionary(path).words == ("a", "b", "c")


def test_load_dictionary_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert len(load_dictionary(path)) == 0


def test_load_dictionary_crlf_and_missing_final_newline(tmp_path):
    path = tmp_path / "crlf.txt"
    path.write_bytes(b"one\r\ntwo\r\nthree")
    assert load_dictionary(path).words == ("one", "two", "three")


def test_load_dictionary_strips_byte_order_mark(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbfship\nsheep\n")
    dictionary = load_dictionary(path)
    assert dictionary.words == ("ship", "sheep")
    assert FastSSIndex.build(dictionary, IndexParams(1)).search("ship")[0][0] == 0


def test_load_dictionary_invalid_utf8_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    for data, line in [
        (b"good\nalso good\n\xff\xfe broken\nmore\n", 3),
        (b"\xefbad\ngood\n", 1),                 # first line
        (b"\xef\xbb\xbf\xffbad\ngood\n", 1),     # first line, after a byte-order mark
        (b"good\r\nalso good\r\nlast \xc3", 3),  # last line, no final newline
    ]:
        path.write_bytes(data)
        with pytest.raises(ValueError, match=rf"bad\.txt:{line}: invalid UTF-8 \("):
            load_dictionary(path)


def test_load_dictionary_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_dictionary(tmp_path / "nope.txt")


def test_bundled_word_list_loads():
    # 20,000 unique non-blank lines, counted independently of the loader.
    path = bundled_words_path()
    raw_lines = [l for l in path.read_text().split("\n") if l]
    assert len(raw_lines) == 20_000
    assert len(set(raw_lines)) == 20_000
    dictionary = load_dictionary(path)
    assert len(dictionary) == 20_000


def test_perturb_zero_errors_is_identity(small_dictionary):
    workload = perturb(small_dictionary, 50, 0, seed=1)
    assert len(workload) == 50
    assert all(isinstance(query, str) for query in workload.queries)
    assert set(workload.queries) <= set(small_dictionary.words)


def test_perturb_deterministic(small_dictionary):
    first = perturb(small_dictionary, 80, 3, seed=99)
    second = perturb(small_dictionary, 80, 3, seed=99)
    assert first == second
    third = perturb(small_dictionary, 80, 3, seed=100)
    assert first != third


def test_perturb_stays_within_distance(small_dictionary):
    workload = perturb(small_dictionary, 300, 3, seed=7)
    scanner = NaiveScanner(small_dictionary)
    for query in workload.queries:
        # at most 3 edits from the word it was drawn from
        assert scanner.scan(query, 3), query


def test_perturb_rejects_empty_dictionary():
    with pytest.raises(ValueError):
        perturb(Dictionary([]), 10, 2, seed=0)


def test_perturb_rejects_negative_count(small_dictionary):
    with pytest.raises(ValueError, match="count"):
        perturb(small_dictionary, -1, 2, seed=0)
    assert len(perturb(small_dictionary, 0, 2, seed=0)) == 0


def test_run_benchmark_d0_finds_sources(small_dictionary):
    workload = perturb(small_dictionary, 60, 0, seed=3)
    report = run_benchmark(small_dictionary, IndexParams(0), workload)
    assert report.method == "fastss"
    assert report.n == len(small_dictionary)
    # at d=0 the only possible match is the untouched source word itself
    assert report.mean_matches == 1.0
    assert report.mean_cand >= 1.0
    assert report.seed == 3


def test_run_benchmark_candidates_grow_with_distance(small_dictionary):
    means = []
    for d in (0, 1, 2, 3):
        workload = perturb(small_dictionary, 60, d, seed=4)
        report = run_benchmark(small_dictionary, IndexParams(d), workload)
        means.append(report.mean_cand)
    assert means == sorted(means)
    assert means[-1] > means[0]


def test_run_benchmark_counts_deterministic(small_dictionary):
    workload = perturb(small_dictionary, 40, 2, seed=5)
    params = IndexParams(2, 6)
    a = run_benchmark(small_dictionary, params, workload)
    b = run_benchmark(small_dictionary, params, workload)
    assert (a.mean_cand, a.mean_matches, a.stored_pairs, a.distinct_keys) == \
           (b.mean_cand, b.mean_matches, b.stored_pairs, b.distinct_keys)


def test_compare_baselines_rows_agree(small_dictionary):
    workload = perturb(small_dictionary, 40, 2, seed=6)
    reports = compare_baselines(small_dictionary, 2, workload, dataset="unit")
    assert [r.method for r in reports] == ["naive", "bktree", "fastss", "fastss"]
    assert len(reports) >= 3
    # mutual oracle check already ran inside; verify the aggregates line up
    assert len({r.mean_matches for r in reports}) == 1
    assert reports[0].mean_cand == len(small_dictionary)
    # splitting must store fewer pairs than the unsplit index
    unsplit, split = reports[2], reports[3]
    assert unsplit.m is None and split.m is not None
    assert split.stored_pairs < unsplit.stored_pairs


def test_compare_baselines_scans_each_query_once(small_dictionary, monkeypatch):
    # The scan's answers are timed as the naive row and then reused as the
    # reference of the BK-tree and of both index rows.
    from fastss import baselines

    workload = perturb(small_dictionary, 30, 2, seed=11)
    original = baselines.NaiveScanner.scan
    calls = []

    def counted(self, query, max_distance):
        calls.append(query)
        return original(self, query, max_distance)

    monkeypatch.setattr(baselines.NaiveScanner, "scan", counted)
    compare_baselines(small_dictionary, 2, workload)
    assert calls == list(workload.queries)


def test_csv_schema(tmp_path, small_dictionary):
    workload = perturb(small_dictionary, 10, 1, seed=8)
    reports = compare_baselines(small_dictionary, 1, workload, dataset="unit")
    out = tmp_path / "report.csv"
    write_csv(reports, out)
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(CSV_HEADER)
    assert len(rows) == 1 + len(reports)
    header_index = {name: i for i, name in enumerate(rows[0])}
    for row in rows[1:]:
        assert row[header_index["dataset"]] == "unit"
        assert int(row[header_index["n"]]) == len(small_dictionary)
        float(row[header_index["mean_query_us"]])
        float(row[header_index["mean_cand"]])
    fastss_rows = [r for r in rows[1:] if r[header_index["method"]] == "fastss"]
    assert fastss_rows[0][header_index["m"]] == "inf"
    assert fastss_rows[1][header_index["m"]].isdigit()
    naive_row = next(r for r in rows[1:] if r[header_index["method"]] == "naive")
    assert naive_row[header_index["stored_pairs"]] == ""


def test_losslessness_error_reports_context(small_dictionary, monkeypatch):
    # Sabotage the index's verification step, which search and the
    # benchmark share, to force a mismatch.
    from fastss import index as index_module

    workload = perturb(small_dictionary, 10, 2, seed=9)
    original = index_module.FastSSIndex._verify

    def broken_verify(self, query, ids):
        return original(self, query, ids)[:-1]

    monkeypatch.setattr(index_module.FastSSIndex, "_verify", broken_verify)
    with pytest.raises(LosslessnessError, match=r"d=2.*seed=9"):
        run_benchmark(small_dictionary, IndexParams(2), workload)


def test_run_benchmark_computes_candidates_once_per_query(small_dictionary, monkeypatch):
    from fastss import index as index_module

    workload = perturb(small_dictionary, 50, 2, seed=10)
    original = index_module.FastSSIndex.candidates
    calls = []

    def counted(self, query):
        calls.append(query)
        return original(self, query)

    monkeypatch.setattr(index_module.FastSSIndex, "candidates", counted)
    report = run_benchmark(small_dictionary, IndexParams(2), workload)
    assert calls == list(workload.queries)
    index = FastSSIndex.build(small_dictionary, IndexParams(2))
    total = sum(len(original(index, query)) for query in workload.queries)
    assert report.mean_cand == total / len(workload)


def test_bktree_mismatch_reports_context(small_dictionary, monkeypatch):
    # Every perturbed query is within d of its source word, so each answer
    # has a match to drop.
    from fastss import baselines

    workload = perturb(small_dictionary, 10, 2, seed=12)
    original = baselines.BKTree.query

    def broken_query(self, query, max_distance):
        matches, computations = original(self, query, max_distance)
        return matches[:-1], computations

    monkeypatch.setattr(baselines.BKTree, "query", broken_query)
    with pytest.raises(LosslessnessError, match=r"bktree.*d=2, m=None, seed=12"):
        compare_baselines(small_dictionary, 2, workload)
