"""Tests of the benchmark itself, on a few hundred bundled words so they run
in seconds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from fastss import Dictionary, FastSSIndex, NaiveScanner

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORDS = harness.read_words(ROOT / "src" / "fastss" / "data" / "words.txt")[::60]


def test_declared_workloads_exist():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, tmp_path, capsys):
    result = harness.run(workload, 3, 0.3, trace, WORDS, tmp_path)
    printed = capsys.readouterr().out

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float))
        assert any(line.split()[0] == name and line.split()[-1] == metric["unit"]
                   for line in printed.splitlines() if line.strip()), name
    if trace:
        spans = (tmp_path / f"{workload}-seed3.jsonl").read_text().splitlines()
        assert {json.loads(line)["name"] for line in spans} >= {
            "index.build", "index.search", "index.candidates",
            "neighborhood.full_neighborhood", "neighborhood.residual_keys"}
    else:
        assert "error_rate 0.0 fraction" in printed


def test_lossy_search_is_caught(monkeypatch, tmp_path, capsys):
    search = FastSSIndex.search

    def lossy(self, query):
        return search(self, query)[1:]

    monkeypatch.setattr(FastSSIndex, "search", lossy)
    result = harness.run("typo-d2", 3, 0.3, False, WORDS, tmp_path)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert "error_rate 0.0 " not in capsys.readouterr().out


def test_queries_repeat_for_a_seed_and_differ_across_seeds():
    for workload in harness.WORKLOADS.values():
        first = harness.make_queries(workload, WORDS, 1)
        assert harness.digest(first) == harness.digest(harness.make_queries(workload, WORDS, 1))
        assert harness.digest(first) != harness.digest(harness.make_queries(workload, WORDS, 2))
        assert len(first) == workload.pool


def test_latency_summary_takes_each_query_at_its_median_call():
    # query 0 is called three times, query 1 once; times in ns
    positions, latencies = [0, 1, 0, 0], [2000, 5000, 9000, 1000]
    summary = harness.latency_summary(positions, latencies)
    assert summary["query_p50_us"] == 3.5 and summary["query_p90_us"] == 5.0
    assert summary["qps"] == 2 / 7e-6
    assert summary["queries"] == 2 and summary["beyond_p90"] == 0


def test_reference_scale_is_nominal_over_the_median_sample():
    reference = harness.Reference()
    reference.samples = [harness.REFERENCE_NS * 2, harness.REFERENCE_NS * 4, 10**15]
    assert reference.scale() == 0.25
    reference.sample()
    assert len(reference.samples) == 4 and reference.samples[-1] > 0


def test_reference_kernel_computes_banded_edit_distance():
    words = [a for a, _ in harness._REFERENCE_PAIRS]
    scanner = NaiveScanner(Dictionary(words))
    for i, (_, b) in enumerate(harness._REFERENCE_PAIRS):
        distance = int(scanner.distances(b)[i])
        expected = distance if distance <= 3 else None
        assert harness._reference_distance(words[i], b, 3) == expected


def test_restricted_oracle_equals_the_full_scan():
    scanner = NaiveScanner(Dictionary(WORDS))
    # anagrams and characters outside a-z probe the bag-distance bound
    extra = [WORDS[7][::-1], WORDS[8] + "é", "é" + WORDS[9][1:], "ßø", ""]
    for workload in harness.WORKLOADS.values():
        d = workload.max_distance
        oracle = harness.Oracle(WORDS, d)
        for query in harness.make_queries(workload, WORDS, 5)[:100] + extra:
            assert oracle.answer(query) == scanner.scan(query, d), query


def test_run_fails_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "perfbench" / "run.py", tmp_path / "perfbench" / "run.py")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "typo-d2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
