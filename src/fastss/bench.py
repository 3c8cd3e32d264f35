"""Benchmark harness: dictionary files, perturbed query workloads, timed
runs and CSV reports.

Every benchmark run doubles as a correctness check: each query is also
answered by an exhaustive scan and any disagreement aborts the run with
the offending configuration spelled out.
"""

from __future__ import annotations

import csv
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .baselines import BKTree, NaiveScanner
from .index import Dictionary, FastSSIndex, IndexParams, Match, Matches
from .neighborhood import _int_in

__all__ = [
    "Workload",
    "BenchReport",
    "LosslessnessError",
    "CSV_HEADER",
    "load_dictionary",
    "bundled_words_path",
    "perturb",
    "run_benchmark",
    "compare_baselines",
    "write_csv",
]

LOWERCASE = "abcdefghijklmnopqrstuvwxyz"

CSV_HEADER = ("dataset", "n", "d", "m", "stored_pairs", "distinct_keys",
              "build_ms", "mean_query_us", "mean_cand", "mean_matches",
              "method", "seed")


@dataclass(frozen=True)
class Workload:
    """Reproducible query set: perturbed dictionary entries plus the seed
    that generated them."""

    seed: int
    queries: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.queries)


@dataclass(frozen=True)
class BenchReport:
    """Aggregates for one (dataset, method, d, m) configuration."""

    dataset: str
    n: int
    d: int
    m: int | None
    stored_pairs: int | None
    distinct_keys: int | None
    build_ms: float
    mean_query_us: float
    median_query_us: float
    mean_cand: float
    mean_matches: float
    method: str
    seed: int

    @property
    def m_label(self) -> str:
        """The split threshold as reports print it: ``inf`` if unsplit, blank for a baseline."""
        if self.method != "fastss":
            return ""
        return "inf" if self.m is None else str(self.m)

    def csv_row(self) -> list[str]:
        pairs = "" if self.stored_pairs is None else str(self.stored_pairs)
        keys = "" if self.distinct_keys is None else str(self.distinct_keys)
        return [
            self.dataset, str(self.n), str(self.d), self.m_label, pairs, keys,
            f"{self.build_ms:.3f}", f"{self.mean_query_us:.3f}",
            f"{self.mean_cand:.6f}", f"{self.mean_matches:.6f}",
            self.method, str(self.seed),
        ]


class LosslessnessError(RuntimeError):
    """A filtered method returned a different match set than the
    exhaustive scan."""


def load_dictionary(path: str | Path) -> Dictionary:
    """Read a one-word-per-line UTF-8 file. A leading byte-order mark and
    trailing newlines (and a carriage return before them) are stripped,
    blank lines are skipped and duplicate lines are dropped keeping the
    first occurrence."""
    data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: invalid UTF-8 ({exc.reason})") from exc
    lines = (line.rstrip("\r") for line in text.split("\n"))
    return Dictionary(list(dict.fromkeys(line for line in lines if line)))


def bundled_words_path() -> Path:
    """Path of the word list shipped with the package (20k English words
    harvested from documentation prose)."""
    return Path(__file__).parent / "data" / "words.txt"


def perturb(dictionary: Dictionary, count: int, max_errors: int, seed: int) -> Workload:
    """Draw ``count`` dictionary entries uniformly with replacement and
    distort each with k ~ uniform{0..max_errors} random edits: insert,
    delete or substitute at a uniform position, inserted and substituted
    characters uniform over a-z. Same seed, same workload. Raises
    ValueError for an empty dictionary, and TypeError or ValueError for a
    ``count`` or ``max_errors`` that is not an int of at least 0."""
    if len(dictionary) == 0:
        raise ValueError("cannot perturb an empty dictionary")
    _int_in(count, "count", 0)
    _int_in(max_errors, "max_errors", 0)
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        word = dictionary[rng.randrange(len(dictionary))]
        for _ in range(rng.randint(0, max_errors)):
            op = rng.choice("ids") if word else "i"
            if op == "i":
                pos = rng.randint(0, len(word))
                word = word[:pos] + rng.choice(LOWERCASE) + word[pos:]
            elif op == "d":
                pos = rng.randrange(len(word))
                word = word[:pos] + word[pos + 1:]
            else:
                pos = rng.randrange(len(word))
                word = word[:pos] + rng.choice(LOWERCASE) + word[pos + 1:]
        queries.append(word)
    return Workload(seed, tuple(queries))


def run_benchmark(dictionary: Dictionary, params: IndexParams, workload: Workload,
                  dataset: str = "", expected: Sequence[list[Match]] | None = None
                  ) -> BenchReport:
    """Build an index, answer the whole workload, and cross-check every
    result against the exhaustive scan. ``expected`` holds the scan's
    answers in workload order; without it, every query is scanned here.
    Raises LosslessnessError on the first disagreement."""
    d = params.max_distance
    if expected is None:
        scanner = NaiveScanner(dictionary)
        expected = [scanner.scan(query, d) for query in workload.queries]
    report, _ = _measure("fastss", lambda: FastSSIndex.build(dictionary, params),
                         _index_answer, dictionary, workload, d=d,
                         m=params.split_threshold, dataset=dataset, reference=expected)
    return report


def compare_baselines(dictionary: Dictionary, max_distance: int, workload: Workload,
                      dataset: str = "") -> list[BenchReport]:
    """One row per method over a shared workload: exhaustive scan, BK-tree,
    unsplit index, and an index split at the rounded mean word length. All
    four must agree on every query; the scan's answers are the reference."""
    d = max_distance
    # Made first, so that a d the index cannot hold is refused before the
    # baselines run the whole workload.
    params = [IndexParams(d, m) for m in (None, max(1, round(dictionary.mean_length())))]
    naive, reference = _measure(
        "naive", lambda: NaiveScanner(dictionary),
        lambda scanner, query: (scanner.scan(query, d), len(dictionary)),
        dictionary, workload, d=d, dataset=dataset)
    bktree, _ = _measure("bktree", lambda: BKTree.build(dictionary),
                         lambda tree, query: tree.query(query, d),
                         dictionary, workload, d=d, dataset=dataset, reference=reference)
    return [naive, bktree] + [run_benchmark(dictionary, p, workload, dataset, reference)
                              for p in params]


def _index_answer(index: FastSSIndex, query: str) -> tuple[Matches, int]:
    # What search does, with the candidates kept for the count.
    ids = index.candidates(query)
    return index._verify(query, ids), len(ids)


def _measure(method, build, answer, dictionary, workload, *, d, m=None, dataset,
             reference=None) -> tuple[BenchReport, list[Matches | list[Match]]]:
    """Time ``build()``, then ``answer(built, query)`` on each query: its
    matches and the work they took (candidates or distance computations).
    Every answer must equal ``reference``'s, when that is given. Returns
    the report and the answers in workload order."""
    start = time.perf_counter()
    built = build()
    build_ms = (time.perf_counter() - start) * 1e3
    times_us, answers, work = [], [], 0
    expected = [None] * len(workload) if reference is None else reference
    for query, want in zip(workload.queries, expected, strict=True):
        start = time.perf_counter()
        matches, cost = answer(built, query)
        times_us.append((time.perf_counter() - start) * 1e6)
        answers.append(matches)
        work += cost
        if want is not None and matches != want:
            raise LosslessnessError(
                f"{method} disagrees with the exhaustive scan for query "
                f"{query!r} (d={d}, m={m}, seed={workload.seed})")
    stats = getattr(built, "stats", None)  # only an index has a table
    count = max(len(workload), 1)
    return BenchReport(
        dataset=dataset, n=len(dictionary), d=d, m=m,
        stored_pairs=stats and stats.stored_pairs,
        distinct_keys=stats and stats.distinct_keys,
        build_ms=build_ms, mean_query_us=sum(times_us) / count,
        median_query_us=statistics.median(times_us or [0.0]),
        mean_cand=work / count, mean_matches=sum(map(len, answers)) / count,
        method=method, seed=workload.seed,
    ), answers


def write_csv(reports: list[BenchReport], path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for report in reports:
            writer.writerow(report.csv_row())
