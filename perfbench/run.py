"""Run one benchmark workload of the fastss source tree this file sits in.

    python3 perfbench/run.py --workload typo-d2 --seed 1 --seconds 10 --trace 0

Prints a human-readable report, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Spans
of a traced run go to ``perfbench/out/``. Exits with 2, printing no result,
when the tree holds no fastss sources.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"
WORDS = SOURCES / "fastss" / "data" / "words.txt"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCES / "fastss" / "__init__.py").is_file() or not WORDS.is_file():
        print(f"no fastss sources or word list under {SOURCES}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(harness.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         harness.read_words(WORDS), ROOT / "perfbench" / "out")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
