import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fastss
from fastss.analysis import CollisionModel, expected_candidates, markov_bound
from fastss.cli import main
from fastss.index import FastSSIndex

WORDS = ["hello", "jello", "world", "word", "held", "helper", "yellow",
         "mellow", "fellow", "welding", "wielder", "querying"]


@pytest.fixture
def dict_file(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("\n".join(WORDS) + "\n")
    return path


def test_build_and_query(tmp_path, dict_file, capsys):
    index_file = tmp_path / "words.fssi"
    assert main(["build", "--dict", str(dict_file), "--d", "1",
                 "--no-split", "--out", str(index_file)]) == 0
    out = capsys.readouterr().out
    assert "stored pairs" in out and str(index_file) in out
    assert index_file.exists()
    restored = FastSSIndex.from_bytes(index_file.read_bytes())
    assert restored.dictionary.words == tuple(WORDS)

    assert main(["query", "--index", str(index_file), "--word", "hellp"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["hello\t1"]


def test_build_with_split_threshold(tmp_path, dict_file, capsys):
    index_file = tmp_path / "split.fssi"
    assert main(["build", "--dict", str(dict_file), "--d", "2", "--m", "5",
                 "--out", str(index_file)]) == 0
    restored = FastSSIndex.from_bytes(index_file.read_bytes())
    assert restored.params.split_threshold == 5
    capsys.readouterr()


def test_build_requires_split_choice(tmp_path, dict_file):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--dict", str(dict_file), "--d", "1",
              "--out", str(tmp_path / "x.fssi")])
    assert exc.value.code == 2


def test_build_rejects_bad_threshold(tmp_path, dict_file, capsys):
    code = main(["build", "--dict", str(dict_file), "--d", "3", "--m", "0",
                 "--out", str(tmp_path / "x.fssi")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_query_rejects_corrupted_index(tmp_path, dict_file, capsys):
    index_file = tmp_path / "words.fssi"
    main(["build", "--dict", str(dict_file), "--d", "1", "--no-split",
          "--out", str(index_file)])
    blob = bytearray(index_file.read_bytes())
    blob[0] ^= 0xFF
    index_file.write_bytes(bytes(blob))
    code = main(["query", "--index", str(index_file), "--word", "hello"])
    assert code == 1
    assert "magic" in capsys.readouterr().err


def test_bench_writes_csv(tmp_path, dict_file, capsys):
    csv_path = tmp_path / "bench.csv"
    code = main(["bench", "--dict", str(dict_file), "--d", "1", "--m", "6",
                 "--queries", "25", "--seed", "7", "--csv", str(csv_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "fastss" in out and "seed=7" in out
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "dataset" and len(rows) == 2
    assert rows[1][rows[0].index("method")] == "fastss"
    assert rows[1][rows[0].index("seed")] == "7"


def test_compare_writes_all_methods(tmp_path, dict_file, capsys):
    csv_path = tmp_path / "compare.csv"
    code = main(["compare", "--dict", str(dict_file), "--d", "2",
                 "--queries", "20", "--seed", "11", "--csv", str(csv_path)])
    assert code == 0
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    methods = [row[rows[0].index("method")] for row in rows[1:]]
    assert methods == ["naive", "bktree", "fastss", "fastss"]
    capsys.readouterr()


def test_expect_matches_library(capsys):
    assert main(["expect", "--n", "10000", "--len", "8", "--d", "2",
                 "--sigma", "26"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    name, value = out[0].split()
    assert name == "expected_candidates"
    model = CollisionModel(10000, 8, 2, 26)
    assert float(value) == pytest.approx(expected_candidates(model), rel=1e-12)

    assert main(["expect", "--n", "10000", "--len", "8", "--d", "2",
                 "--sigma", "26", "--c", "10"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[1].split()[0] == "markov_bound"
    assert float(out[1].split()[1]) == pytest.approx(
        markov_bound(model, 10), rel=1e-12)


def test_module_entry_point(tmp_path, dict_file):
    # The subprocess imports the package these tests import, installed or not.
    source = str(Path(fastss.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "fastss.cli", "expect", "--n", "100",
         "--len", "6", "--d", "1", "--sigma", "26"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0
    assert result.stdout.startswith("expected_candidates ")


def test_missing_dictionary_file_fails_cleanly(tmp_path, capsys):
    code = main(["bench", "--dict", str(tmp_path / "missing.txt"), "--d", "1",
                 "--queries", "5", "--seed", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bench", "compare"])
@pytest.mark.parametrize("queries", ["0", "-5"])
def test_bench_and_compare_reject_fewer_than_one_query(dict_file, capsys, command,
                                                       queries):
    # An empty workload would print a row of zeros that looks like a result.
    code = main([command, "--dict", str(dict_file), "--d", "1",
                 "--queries", queries, "--seed", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert "--queries" in captured.err
    assert captured.out == ""
