"""Closed-loop benchmark of the fastss filter-and-verify pipeline.

One client in one thread calls ``search`` back to back, the way library
callers each wait for an answer. Queries come from the benchmark's own
generator, seeded from the command line, so a change to library code cannot
change the workload; their digest is printed so runs on two commits can be
shown to use identical inputs.

A run repeats ``rounds`` times: build the index, serialize it, load it back
and spend an equal share of the query time on the loaded index, which is
what every ``fastss query`` call does. Every answer is checked against the
exhaustive scan after the timed loops.

On a shared host, other tenants change the processor's speed by up to half,
for minutes at a time, longer than a run. So the run also times a fixed
piece of interpreter work, the reference, before and after each build, save
and load and every ``CHUNK_NS`` of the query loop, and reports each time
scaled by ``REFERENCE_NS`` over the median reference time of the run: the
time on a host where the reference takes ``REFERENCE_NS``. The reference is
the benchmark's own frozen copy of the verification kernel the library
started from, which takes most of the query time, so it slows and speeds up
with the host as the queries do; and as it shares no code with the library,
a change to the library moves the scaled times as it moves the measured
ones. Over ten typo-d2 runs in which the reference's time moved by half,
scaling cut the spread (interquartile range over median) of the query
metrics from about 0.3 to 0.06-0.13. The measured times and the scale are
printed as well.

The latency metrics are taken over distinct queries, each at the median of
its calls; the loop cycles through the pool, which spreads each query's
calls over the whole run. ``setup_s`` is the median of the builds. The
fastest save and load are printed but not reported as metrics: each runs
for most of a second, and even the fastest of them moved by about 20%
between runs.

The traced run (``trace=True``) records spans around calls into each layer's
public functions and derives the per-layer metrics from them. Each span of
a query is a sibling call made by the benchmark, and each call repeats the
one below it (``search`` calls ``candidates``, which calls
``residual_keys``, which calls ``full_neighborhood``), so a layer's self
time is the difference between neighbouring spans.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import statistics
import string
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from fastss import (
    CollisionModel,
    Dictionary,
    FastSSIndex,
    IndexParams,
    Match,
    NaiveScanner,
    expected_candidates,
    full_neighborhood,
    residual_keys,
    split_positions,
    split_word,
)
from fastss.neighborhood import HalfTag

LOWERCASE = string.ascii_lowercase
OOV_LENGTHS = range(8, 33)


@dataclass(frozen=True)
class Workload:
    name: str
    max_distance: int
    split_threshold: int | None
    queries: str  # "typo": dictionary words with 0..d edits; "oov": random strings
    pool: int     # distinct queries, searched in turn and again
    rounds: int   # builds per run


# BENCHMARK.json declares typo-d2 and split-d3 and says why. oov-d3 runs on
# request: random strings of length 8-32 at d=3 unsplit match nothing, so
# enumeration, hashing and lookup do the work, next to the largest build,
# file and load; its two rounds alone take about 40 s, so it stays out of the
# declared set to keep runs short. Pools are large, so that seeds differ
# little in how much work their queries take, and hold at least 100 queries,
# so that ten lie beyond the reported p90; but small enough that each query
# is searched several times a run, and split-d3 calls take about 50 times
# as long as typo-d2 calls.
WORKLOADS = {w.name: w for w in (
    Workload("typo-d2", 2, None, "typo", 2000, 3),
    Workload("split-d3", 3, 7, "typo", 500, 3),
    Workload("oov-d3", 3, None, "oov", 100, 2),
)}

END_TO_END_UNITS = {
    "setup_s": "s", "query_p50_us": "us", "query_p90_us": "us", "qps": "1/s",
    "index_bytes": "bytes", "file_bytes": "bytes",
}

PER_LAYER_UNITS = {
    "neighborhood.enumerate_us": "us", "neighborhood.hash_us": "us",
    "neighborhood.residuals": "count",
    "neighborhood.build_enumerate_s": "s", "neighborhood.build_hash_s": "s",
    "index.build_table_s": "s",
    "index.probe_us": "us", "index.lookup_us": "us",
    "index.candidates": "count", "index.matches": "count",
    "index.precision": "ratio", "index.stored_pairs": "count",
    "index.distinct_keys": "count", "distance.verify_us": "us",
    "distance.ns_per_verification": "ns", "distance.verify_share": "ratio",
    "trace.overhead": "ratio",
}


# -- inputs ------------------------------------------------------------------

def read_words(path: Path) -> list[str]:
    """The bundled list: one word per line, blank lines skipped."""
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line]


def make_queries(workload: Workload, words: list[str], seed: int) -> list[str]:
    """``workload.pool`` queries in random order; the same workload and seed
    give the same list.

    Query cost depends mostly on length and edit count, so the draws are
    stratified: typo queries take one source word from each of ``pool``
    equal slices of the dictionary sorted by length, and each run of d+1
    neighbouring slices gets every edit count 0..d once, in random order
    (every OOV length occurs equally often). Seeds then differ in the
    words, edits and letters drawn, not in how many short or long, near or
    far queries a pool holds.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    n = workload.pool
    if workload.queries == "oov":
        lengths = [OOV_LENGTHS[i % len(OOV_LENGTHS)] for i in range(n)]
        rng.shuffle(lengths)
        return ["".join(rng.choices(LOWERCASE, k=length)) for length in lengths]
    by_length = sorted(words, key=len)
    edits = []
    while len(edits) < n:
        block = list(range(workload.max_distance + 1))
        rng.shuffle(block)
        edits += block
    queries = []
    for i in range(n):
        low = i * len(words) // n  # slices hold one word or more
        word = by_length[rng.randrange(low, max(low + 1, (i + 1) * len(words) // n))]
        for _ in range(edits[i]):
            word = _random_edit(rng, word)
        queries.append(word)
    rng.shuffle(queries)
    return queries


def _random_edit(rng: random.Random, word: str) -> str:
    """Insert, delete or substitute at a uniform position, new characters
    uniform over a-z."""
    op = rng.choice("ids") if word else "i"
    if op == "i":
        pos = rng.randint(0, len(word))
        return word[:pos] + rng.choice(LOWERCASE) + word[pos:]
    pos = rng.randrange(len(word))
    if op == "d":
        return word[:pos] + word[pos + 1:]
    return word[:pos] + rng.choice(LOWERCASE) + word[pos + 1:]


def digest(queries: list[str]) -> str:
    return hashlib.sha256("\n".join(queries).encode("utf-8")).hexdigest()[:16]


# -- correctness gate ----------------------------------------------------------

def letter_counts(word: str) -> list[int]:
    """Counts of a..z in ``word``, and of all other characters together."""
    counts = [0] * (len(LOWERCASE) + 1)
    for ch in word:
        counts[LETTER_SLOT.get(ch, len(LOWERCASE))] += 1
    return counts


LETTER_SLOT = {ch: i for i, ch in enumerate(LOWERCASE)}


class Oracle:
    """Exhaustive scan over the words whose bag distance to the query is at
    most d. Bag distance, the larger of the two sides' surplus letters, is
    a lower bound on edit distance (each edit changes either surplus by at
    most one, and lumping characters outside a-z together only lowers it),
    so the restriction never prunes a true match; it only skips words that
    cannot match. It is never below the length gap, so it skips at least
    the words a length restriction would."""

    def __init__(self, words: list[str], max_distance: int):
        self._words = words
        self._d = max_distance
        # one row per character slot, one column per word
        self._counts = np.array([letter_counts(w) for w in words], dtype=np.int16).T.copy()
        self._lengths = np.array([len(w) for w in words], dtype=np.int16)
        self._surplus = np.empty_like(self._counts)

    def answer(self, query: str) -> list[Match]:
        surplus = self._surplus
        np.subtract(self._counts, np.array(letter_counts(query), dtype=np.int16)[:, None],
                    out=surplus)
        np.maximum(surplus, 0, out=surplus)
        word_side = np.add.reduce(surplus, axis=0, dtype=np.int16)
        query_side = word_side - (self._lengths - len(query))
        ids = np.flatnonzero(np.maximum(word_side, query_side) <= self._d)
        if len(ids) == 0:
            return []
        scanner = NaiveScanner(Dictionary([self._words[i] for i in ids]))
        # sub-dictionary ids ascend with the global ids, so the
        # (distance, id) order survives the mapping
        return [Match(int(ids[m.word_id]), m.distance)
                for m in scanner.scan(query, self._d)]


def flatten(answer: list[Match] | None) -> tuple[int, ...] | None:
    """An answer as one tuple of ints, which the garbage collector stops
    tracking: keeping thousands of answers as lists of Match tuples would
    trigger full collections over the index during the timed loop."""
    return None if answer is None else tuple(x for match in answer for x in match)


def count_failures(oracle: Oracle, pool: list[str], positions: list[int],
                   answers: list[tuple[int, ...] | None]) -> int:
    """Flattened answers that differ from the exhaustive scan or raised
    (None). Every answer is compared; the scan runs once per distinct query."""
    expected: dict[int, tuple[int, ...]] = {}
    failed = 0
    for position, answer in zip(positions, answers):
        if position not in expected:
            expected[position] = flatten(oracle.answer(pool[position]))
        if answer != expected[position]:
            failed += 1
    return failed


# -- timed phases -------------------------------------------------------------

REFERENCE_NS = 1_000_000  # the reference's time on the nominal host
CHUNK_NS = 200_000_000    # query-loop time between two reference samples

_REFERENCE_RNG = random.Random(0)
_REFERENCE_PAIRS = []
for _length in range(4, 20):
    _word = "".join(_REFERENCE_RNG.choices(LOWERCASE, k=_length))
    _REFERENCE_PAIRS.append((_word, _random_edit(_REFERENCE_RNG, _word)))


def _reference_distance(a: str, b: str, bound: int) -> int | None:
    """Banded edit distance, a frozen copy of the verification kernel the
    library started from: fixed interpreter work of the kind that takes
    most of the query time."""
    if len(a) > len(b):
        a, b = b, a
    n, m = len(a), len(b)
    if m - n > bound:
        return None
    width = 2 * bound + 1
    too_far = bound + 1
    prev = [too_far] * width
    for k in range(width):
        if 0 <= k - bound <= min(m, bound):
            prev[k] = k - bound
    for i in range(1, n + 1):
        current = [too_far] * width
        row_min = too_far
        ca = a[i - 1]
        for k in range(width):
            j = i - bound + k
            if j < 0 or j > m:
                continue
            if j == 0:
                value = i
            else:
                value = prev[k] + (ca != b[j - 1])
                if k + 1 < width and prev[k + 1] + 1 < value:
                    value = prev[k + 1] + 1
                if k > 0 and current[k - 1] + 1 < value:
                    value = current[k - 1] + 1
                if value > too_far:
                    value = too_far
            current[k] = value
            row_min = min(row_min, value)
        if row_min > bound:
            return None
        prev = current
    distance = prev[m - n + bound]
    return distance if distance <= bound else None


class Reference:
    """Times of the reference, taken next to the measured work."""

    def __init__(self):
        self.samples: list[int] = []

    def sample(self) -> None:
        """Time one run of the reference, after an untimed one that brings
        its code back into the caches."""
        for timed_run in (False, True):
            t0 = time.perf_counter_ns()
            for a, b in _REFERENCE_PAIRS:
                _reference_distance(a, b, 3)
            if timed_run:
                self.samples.append(time.perf_counter_ns() - t0)

    def scale(self) -> float:
        """``REFERENCE_NS`` over the median sample."""
        return REFERENCE_NS / statistics.median(self.samples)


def rss_bytes() -> int:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def timed(reference: Reference, fn, *args):
    """Call ``fn``, sampling the reference before and after; return its
    result and the measured seconds."""
    gc.collect()
    reference.sample()
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    reference.sample()
    return result, elapsed


def search_or_none(index: FastSSIndex, query: str):
    try:
        return index.search(query)
    except Exception as exc:  # a raising query counts as a failed answer
        print(f"search({query!r}) raised {exc!r}", file=sys.stderr)
        return None


def query_loop(index: FastSSIndex, pool: list[str], start: int, seconds: float,
               reference: Reference):
    """Closed loop, one client: call ``search`` back to back over the pool,
    from position ``start`` and wrapping, until ``seconds`` have passed,
    sampling the reference every ``CHUNK_NS``. Returns (positions,
    latencies in ns, flattened answers)."""
    gc.collect()
    clock = time.perf_counter_ns
    positions, latencies, answers = [], [], []
    deadline = clock() + int(seconds * 1e9)
    position = start % len(pool)
    chunk_end = 0
    while True:
        t0 = clock()
        answer = search_or_none(index, pool[position])
        t1 = clock()
        positions.append(position)
        latencies.append(t1 - t0)
        answers.append(flatten(answer))
        position = (position + 1) % len(pool)
        if t1 >= deadline:
            return positions, latencies, answers
        if t1 >= chunk_end:
            reference.sample()
            chunk_end = clock() + CHUNK_NS


def latency_summary(positions: list[int], latencies: list[int]) -> dict:
    """p50, p90 and qps over distinct queries, each at the median of its
    calls, so that a query counts by its cost, not by how often the loop
    reached it."""
    calls: dict[int, list[int]] = {}
    for position, latency in zip(positions, latencies):
        calls.setdefault(position, []).append(latency)
    per_query = sorted(statistics.median(c) for c in calls.values())
    p90_rank = math.ceil(len(per_query) * 0.9)  # nearest rank
    return {
        "query_p50_us": statistics.median(per_query) / 1e3,
        "query_p90_us": per_query[p90_rank - 1] / 1e3,
        # one client; the loop's bookkeeping between calls is not the library's
        "qps": len(per_query) / (sum(per_query) / 1e9),
        "queries": len(per_query),
        "beyond_p90": len(per_query) - p90_rank,
    }


def run_end_to_end(workload: Workload, words: list[str], pool: list[str],
                   oracle: Oracle, seconds: float) -> dict:
    """Build, save and load ``rounds`` times, each followed by an equal
    share of the query time on the index just loaded."""
    dictionary = Dictionary(words)
    params = IndexParams(workload.max_distance, workload.split_threshold)
    setup, save, load = [], [], []
    positions, latencies, answers = [], [], []
    index_bytes = file_bytes = 0
    reference = Reference()
    for round_ in range(workload.rounds):
        gc.collect()
        before = rss_bytes()
        built, elapsed = timed(reference, FastSSIndex.build, dictionary, params)
        setup.append(elapsed)
        if round_ == 0:  # later rounds reuse memory freed by earlier ones
            index_bytes = rss_bytes() - before
        blob, elapsed = timed(reference, built.to_bytes)
        save.append(elapsed)
        file_bytes = len(blob)
        del built
        index, elapsed = timed(reference, FastSSIndex.from_bytes, blob)
        load.append(elapsed)
        del blob
        done = query_loop(index, pool, len(positions), seconds / workload.rounds,
                          reference)
        del index
        positions += done[0]
        latencies += done[1]
        answers += done[2]
        print(f"round {round_ + 1}: build {setup[-1]:.3f} s, save {save[-1]:.3f} s, "
              f"load {load[-1]:.3f} s, {len(done[1])} calls, "
              f"p50 {statistics.median(done[1]) / 1e3:.1f} us")

    failed = count_failures(oracle, pool, positions, answers)
    summary = latency_summary(positions, latencies)
    print(f"build/save/load repeated {workload.rounds} times; {len(latencies)} "
          f"search calls over {summary['queries']} distinct queries, "
          f"{summary['beyond_p90']} of them beyond p90")
    print(f"error_rate {failed / len(positions)!r} fraction "
          f"({failed} of {len(positions)} answers differ from the exhaustive scan)")
    scale = reference.scale()
    print(f"times scaled by {scale!r}: the reference took "
          f"{REFERENCE_NS / scale / 1e3:.1f} us (median of {len(reference.samples)}), "
          f"nominally {REFERENCE_NS / 1e3:.1f} us")
    # printed, not reported as metrics: see the module docstring
    print(f"save_s {min(save) * scale!r} s (fastest of {len(save)}), "
          f"load_s {min(load) * scale!r} s (fastest of {len(load)})")
    measured = {"setup_s": statistics.median(setup), **summary}
    for name in ("setup_s", "query_p50_us", "query_p90_us", "qps"):
        print(f"measured {name} {measured[name]!r} {END_TO_END_UNITS[name]}")
    metrics = {
        "setup_s": measured["setup_s"] * scale,
        "query_p50_us": measured["query_p50_us"] * scale,
        "query_p90_us": measured["query_p90_us"] * scale,
        "qps": measured["qps"] / scale,
        "index_bytes": index_bytes,
        "file_bytes": file_bytes,
    }
    return _result(metrics, END_TO_END_UNITS, len(positions), failed)


# -- traced run -----------------------------------------------------------------

@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int | None = None
    query: int | None = None
    count: int | None = None

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Spans kept in memory and written out once the run ends."""

    def __init__(self):
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None, query: int | None = None):
        span = Span(name, 0, parent=parent, query=query)
        self.spans.append(span)
        span_id = len(self.spans) - 1
        span.start_ns = time.perf_counter_ns()
        try:
            yield span_id, span
        finally:
            span.end_ns = time.perf_counter_ns()

    def total_ns(self, name: str) -> int:
        return sum(s.ns for s in self.spans if s.name == name)

    def total_count(self, name: str) -> int:
        return sum(s.count for s in self.spans if s.name == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span_id, span in enumerate(self.spans):
                handle.write(json.dumps({"id": span_id, **asdict(span)}) + "\n")


def build_plan(word: str, d: int, m: int | None) -> list[tuple[str, int, HalfTag]]:
    """The (part, deletions, tag) neighbourhoods ``FastSSIndex.build``
    enumerates for one word."""
    if m is None or len(word) <= m:
        return [(word, d, HalfTag.WHOLE)]
    prefix, suffix = split_word(word)
    half = (d + 1) // 2  # each half of a split word gets half the budget
    return [(prefix, half, HalfTag.PREFIX), (suffix, half, HalfTag.SUFFIX)]


def probe_plan(query: str, d: int, m: int | None) -> list[tuple[str, int, HalfTag]]:
    """The (part, deletions, tag) neighbourhoods ``FastSSIndex.candidates``
    enumerates for one query."""
    plan = []
    if m is None or len(query) <= m + d:
        plan.append((query, d, HalfTag.WHOLE))
    if m is not None and len(query) >= m - d + 1:
        half = (d + 1) // 2
        for cut in split_positions(len(query), d):
            plan += [(query[:cut], half, HalfTag.PREFIX),
                     (query[cut:], half, HalfTag.SUFFIX)]
    return plan


def traced_build(tracer: Tracer, dictionary: Dictionary, params: IndexParams) -> FastSSIndex:
    d, m = params.max_distance, params.split_threshold
    plans = [build_plan(word, d, m) for word in dictionary]
    gc.collect()
    with tracer.span("index.build"):
        index = FastSSIndex.build(dictionary, params)
    gc.collect()
    with tracer.span("neighborhood.build_full_neighborhood") as (_, span):
        span.count = sum(len(full_neighborhood(part, k))
                         for plan in plans for part, k, _tag in plan)
    gc.collect()
    with tracer.span("neighborhood.build_residual_keys"):
        for plan in plans:
            for part, k, tag in plan:
                residual_keys(part, k, tag)
    return index


def traced_query(tracer: Tracer, index: FastSSIndex, query: str, query_id: int):
    d, m = index.params.max_distance, index.params.split_threshold
    plan = probe_plan(query, d, m)
    with tracer.span("query", query=query_id) as (root, _):
        with tracer.span("index.search", root, query_id) as (_, span):
            answer = search_or_none(index, query)
        span.count = len(answer or ())
        with tracer.span("index.candidates", root, query_id) as (_, span):
            span.count = len(index.candidates(query))
        with tracer.span("neighborhood.full_neighborhood", root, query_id) as (_, span):
            span.count = sum(len(full_neighborhood(part, k)) for part, k, _tag in plan)
        with tracer.span("neighborhood.residual_keys", root, query_id):
            for part, k, tag in plan:
                residual_keys(part, k, tag)
    return answer


def run_traced(workload: Workload, words: list[str], pool: list[str],
               oracle: Oracle, seconds: float, trace_path: Path) -> dict:
    """Each query once traced and once untraced; the ratio of the two
    ``search`` times is the tracing overhead."""
    dictionary = Dictionary(words)
    params = IndexParams(workload.max_distance, workload.split_threshold)
    tracer = Tracer()
    index = traced_build(tracer, dictionary, params)

    gc.collect()
    clock = time.perf_counter_ns
    positions, answers, untraced_ns = [], [], []
    deadline = clock() + int(seconds * 1e9)
    while not positions or clock() < deadline:
        query_id = len(positions)
        position = query_id % len(pool)
        # untraced and traced calls of one query alternate in order, so
        # neither side always runs on caches the other has just warmed
        for traced in ((False, True) if query_id % 2 else (True, False)):
            if traced:
                answers.append(flatten(traced_query(tracer, index, pool[position], query_id)))
            else:
                t0 = clock()
                answers.append(flatten(search_or_none(index, pool[position])))
                untraced_ns.append(clock() - t0)
        positions.append(position)
    failed = count_failures(oracle, pool, [p for p in positions for _ in range(2)], answers)

    queries = len(positions)
    search_ns = tracer.total_ns("index.search")
    probe_ns = tracer.total_ns("index.candidates")
    enumerate_ns = tracer.total_ns("neighborhood.full_neighborhood")
    keys_ns = tracer.total_ns("neighborhood.residual_keys")
    candidates = tracer.total_count("index.candidates")
    matches = tracer.total_count("index.search")
    build_ns = tracer.total_ns("index.build")
    build_enumerate_ns = tracer.total_ns("neighborhood.build_full_neighborhood")
    build_keys_ns = tracer.total_ns("neighborhood.build_residual_keys")
    # search repeats candidates, then verifies; where almost nothing is
    # verified (oov-d3) the difference is noise around zero
    verify_ns = search_ns - probe_ns
    metrics = {
        "neighborhood.enumerate_us": enumerate_ns / queries / 1e3,
        "neighborhood.hash_us": (keys_ns - enumerate_ns) / queries / 1e3,
        "neighborhood.residuals": tracer.total_count("neighborhood.full_neighborhood") / queries,
        "neighborhood.build_enumerate_s": build_enumerate_ns / 1e9,
        "neighborhood.build_hash_s": (build_keys_ns - build_enumerate_ns) / 1e9,
        "index.build_table_s": (build_ns - build_keys_ns) / 1e9,
        "index.probe_us": probe_ns / queries / 1e3,
        "index.lookup_us": (probe_ns - keys_ns) / queries / 1e3,
        "index.candidates": candidates / queries,
        "index.matches": matches / queries,
        # no candidates means no verification was wasted
        "index.precision": matches / candidates if candidates else 1.0,
        "index.stored_pairs": index.stats.stored_pairs,
        "index.distinct_keys": index.stats.distinct_keys,
        "distance.verify_us": verify_ns / queries / 1e3,
        "distance.ns_per_verification": verify_ns / candidates if candidates else 0.0,
        "distance.verify_share": verify_ns / search_ns,
        "trace.overhead": search_ns / sum(untraced_ns),
    }
    if workload.split_threshold is None:
        print_collision_model(tracer, pool, positions, len(words), workload.max_distance)
    tracer.write(trace_path)
    print(f"{len(tracer.spans)} spans over {queries} traced queries written to {trace_path}")
    return _result(metrics, PER_LAYER_UNITS, 2 * queries, failed)


def print_collision_model(tracer: Tracer, pool: list[str], positions: list[int],
                          n: int, d: int) -> None:
    """Observed mean candidates per query length next to the collision
    model's prediction for n random words of that length. A diagnostic only:
    the model assumes uniform random words of one length."""
    by_length: dict[int, list[int]] = {}
    seen = set()
    for span in tracer.spans:
        if span.name == "index.candidates" and positions[span.query] not in seen:
            seen.add(positions[span.query])
            by_length.setdefault(len(pool[positions[span.query]]), []).append(span.count)
    for length in sorted(by_length):
        counts = by_length[length]
        expected = (expected_candidates(CollisionModel(n, length, d, 26))
                    if length >= d else float("nan"))
        print(f"collision-model length {length:2d}: {len(counts):4d} queries, "
              f"observed {statistics.fmean(counts):10.2f} candidates, "
              f"expected {expected:.4g}")


# -- entry point ------------------------------------------------------------------

def _result(values: dict, units: dict, attempted: int, failed: int) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        words: list[str], trace_dir: Path) -> dict:
    """One benchmark run; returns the result object printed as the last
    line of standard output."""
    workload = WORKLOADS[workload_name]
    pool = make_queries(workload, words, seed)
    print(f"workload {workload.name}: d={workload.max_distance} "
          f"m={workload.split_threshold} words={len(words)} seed={seed} "
          f"queries={len(pool)} sha256={digest(pool)} "
          f"closed loop, 1 client, {seconds} s")
    oracle = Oracle(words, workload.max_distance)
    if trace:
        trace_path = trace_dir / f"{workload.name}-seed{seed}.jsonl"
        result = run_traced(workload, words, pool, oracle, seconds, trace_path)
    else:
        result = run_end_to_end(workload, words, pool, oracle, seconds)
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']!r:>24} {metric['unit']}")
    return result
