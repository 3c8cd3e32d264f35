"""Command-line driver: build and query index files, run benchmarks,
compare against baselines, evaluate the collision model.

Exits 0 on success and nonzero on any failure, including a losslessness
violation detected during a benchmark run.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .analysis import CollisionModel, expected_candidates, markov_bound
from .bench import (
    compare_baselines,
    load_dictionary,
    perturb,
    run_benchmark,
    write_csv,
)
from .index import FastSSIndex, IndexParams

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastss",
        description="Lossless approximate dictionary matching via deletion-"
                    "neighborhood indexing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an index file from a word list")
    p.add_argument("--dict", required=True, help="word list, one word per line")
    p.add_argument("--d", type=int, required=True, help="maximum edit distance")
    _add_split_options(p, required=True)
    p.add_argument("--out", required=True, help="output index file")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("query", help="query an index file")
    p.add_argument("--index", required=True, help="index file from 'build'")
    p.add_argument("--word", required=True, help="query word")
    p.set_defaults(handler=_cmd_query)

    workload = argparse.ArgumentParser(add_help=False)
    workload.add_argument("--dict", required=True)
    workload.add_argument("--d", type=int, required=True)
    workload.add_argument("--queries", type=int, default=1000)
    workload.add_argument("--seed", type=int, default=42)
    workload.add_argument("--csv", help="write the report rows to this CSV file")

    p = sub.add_parser("bench", parents=[workload],
                       help="benchmark the index on perturbed queries")
    _add_split_options(p, required=False)
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("compare", parents=[workload],
                       help="benchmark naive scan, BK-tree and both index variants")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("expect", help="expected candidate count for a random dictionary")
    p.add_argument("--n", type=int, required=True, help="dictionary size")
    p.add_argument("--len", dest="length", type=int, required=True, help="word length")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--sigma", type=int, required=True, help="alphabet size")
    p.add_argument("--c", type=float,
                   help="also bound P[candidates >= n/c] via Markov")
    p.set_defaults(handler=_cmd_expect)

    return parser


def _add_split_options(parser: argparse.ArgumentParser, required: bool) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--m", type=int, help="split words longer than this")
    group.add_argument("--no-split", action="store_true",
                       help="index whole words only")


def _cmd_build(args) -> int:
    dictionary = load_dictionary(args.dict)
    params = IndexParams(args.d, args.m)
    start = time.perf_counter()
    index = FastSSIndex.build(dictionary, params)
    build_ms = (time.perf_counter() - start) * 1e3
    blob = index.to_bytes()
    Path(args.out).write_bytes(blob)
    m_text = "inf" if params.split_threshold is None else params.split_threshold
    print(f"indexed {len(dictionary)} words at d={params.max_distance} m={m_text}: "
          f"{index.stats.stored_pairs} stored pairs, "
          f"{index.stats.distinct_keys} distinct keys, "
          f"{build_ms:.1f} ms, {len(blob)} bytes -> {args.out}")
    return 0


def _cmd_query(args) -> int:
    index = FastSSIndex.from_bytes(Path(args.index).read_bytes())
    for word_id, distance in index.search(args.word):
        print(f"{index.dictionary[word_id]}\t{distance}")
    return 0


def _cmd_bench(args) -> int:
    dictionary, workload = _workload(args)
    _output([run_benchmark(dictionary, IndexParams(args.d, args.m), workload,
                           dataset=Path(args.dict).stem)], args.csv)
    return 0


def _cmd_compare(args) -> int:
    dictionary, workload = _workload(args)
    _output(compare_baselines(dictionary, args.d, workload,
                              dataset=Path(args.dict).stem), args.csv)
    return 0


def _workload(args):
    if args.queries < 1:
        raise ValueError(f"--queries must be at least 1, not {args.queries}")
    dictionary = load_dictionary(args.dict)
    return dictionary, perturb(dictionary, args.queries, args.d, args.seed)


def _cmd_expect(args) -> int:
    model = CollisionModel(args.n, args.length, args.d, args.sigma)
    print(f"expected_candidates {expected_candidates(model)}")
    if args.c is not None:
        print(f"markov_bound {markov_bound(model, args.c)}")
    return 0


def _output(reports, csv_path) -> None:
    for r in reports:
        size = f" pairs={r.stored_pairs} keys={r.distinct_keys}" if r.method == "fastss" else ""
        print(f"{r.method:<7} d={r.d} m={r.m_label or '-':<4} n={r.n}{size} "
              f"build={r.build_ms:.1f}ms query={r.mean_query_us:.1f}us "
              f"(median {r.median_query_us:.1f}us) cand={r.mean_cand:.2f} "
              f"matches={r.mean_matches:.3f} seed={r.seed}")
    if csv_path:
        write_csv(reports, csv_path)
        print(f"wrote {csv_path}")


if __name__ == "__main__":
    sys.exit(main())
