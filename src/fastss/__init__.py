"""Lossless approximate dictionary matching.

Index the deletion neighborhoods of a word list once, then retrieve every
entry within a fixed edit distance of a query in microseconds instead of
scanning the whole list. Long words can be split in half at build time to
trade a much smaller index for slightly slower queries, without giving up
any matches. Exhaustive-scan and BK-tree baselines plus a closed-form
collision model are included for benchmarking, and the ``fastss`` CLI
drives all of it from the shell. Workload and report helpers live in
``fastss.bench``, key hashing in ``fastss.neighborhood``.
"""

from .analysis import CollisionModel, expected_candidates, markov_bound
from .baselines import BKTree, NaiveScanner
from .bench import bundled_words_path, load_dictionary
from .distance import full_edit_distance
from .index import (
    Dictionary,
    FastSSIndex,
    IndexFormatError,
    IndexParams,
    Match,
    Matches,
    split_positions,
    split_word,
)
from .neighborhood import full_neighborhood, residual_keys

__version__ = "0.1.0"

__all__ = [
    "BKTree",
    "CollisionModel",
    "Dictionary",
    "FastSSIndex",
    "IndexFormatError",
    "IndexParams",
    "Match",
    "Matches",
    "NaiveScanner",
    "bundled_words_path",
    "expected_candidates",
    "full_edit_distance",
    "full_neighborhood",
    "load_dictionary",
    "markov_bound",
    "residual_keys",
    "split_positions",
    "split_word",
]
