#!/usr/bin/env python3
"""Race the index against an exhaustive scan and a BK-tree.

All three answer every query identically (that is asserted on every
single query). What differs is how much of the dictionary each one has to
look at: the scan always touches everything, the BK-tree prunes by the
triangle inequality but still visits a big slice at useful distances, and
the residual index verifies a few dozen candidates.
"""

from fastss import Dictionary, bundled_words_path, load_dictionary
from fastss.bench import compare_baselines, perturb, write_csv

# a 6k-word slice keeps the BK-tree build snappy for a demo
dictionary = Dictionary(load_dictionary(bundled_words_path()).words[:6000])

d = 2
workload = perturb(dictionary, 150, d, seed=2)
print(f"{len(dictionary)} words, {len(workload)} queries, d={d}\n")

reports = compare_baselines(dictionary, d, workload, dataset="demo6k")

print(f"{'method':<8} {'m':>4} {'examined/query':>15} {'mean query':>11} {'build':>9}")
for r in reports:
    print(f"{r.method:<8} {r.m_label or '-':>4} {r.mean_cand:>15.1f} "
          f"{r.mean_query_us:>9.0f}us {r.build_ms:>7.0f}ms")

write_csv(reports, "baseline_report.csv")
print("\nwrote baseline_report.csv (same schema as `fastss compare --csv`)")
print("'examined/query' counts distance computations for naive/bktree and "
      "verified candidates for fastss")
