#!/usr/bin/env python3
"""Build an index over a handful of words and run fault-tolerant lookups.

The index maps hashed deletion residuals back to the words that produced
them. A query computes its own residuals, collects every word sharing one,
and verifies that short candidate list with a bit-vector edit distance.
The result is exactly what scanning the whole dictionary would return.
"""

from fastss import Dictionary, FastSSIndex, IndexParams, NaiveScanner

words = [
    "ship", "sheep", "shape", "sharp", "shore", "chore", "choir",
    "quire", "query", "queue", "quiet", "quilt", "guilt", "guild",
]
dictionary = Dictionary(words)

# d is fixed at build time: every query will tolerate up to 2 edits.
index = FastSSIndex.build(dictionary, IndexParams(max_distance=2))
scanner = NaiveScanner(dictionary)
print(f"{index!r}")
print(f"table holds {index.stats.stored_pairs} (key, word-id) pairs "
      f"under {index.stats.distinct_keys} keys\n")

for query in ["ship", "shep", "qeury", "gild", "xylophone"]:
    matches = index.search(query)
    shown = ", ".join(f"{dictionary[word_id]}({distance})" for word_id, distance in matches)
    print(f"{query!r:14} -> {shown or 'no matches'}")

    # Lossless: the filtered search equals the exhaustive scan, always.
    assert matches == scanner.scan(query, 2)

print("\nevery result above was cross-checked against a full scan")

# Indexes serialize to a compact binary blob (see the `fastss build` and
# `fastss query` CLI commands for the file-based workflow).
blob = index.to_bytes()
assert FastSSIndex.from_bytes(blob) == index
print(f"serialized index: {len(blob)} bytes, round-trips identically")
