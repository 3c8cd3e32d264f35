"""Reference search methods the index is measured against: an exhaustive
scan over the whole dictionary and a BK-tree.

The scan is the ground truth for losslessness checks. It evaluates the
full distance table for every dictionary word; the only liberty taken is
that the tables for all words are filled simultaneously with numpy, which
is cross-checked against the scalar implementation in the test suite.
The words are matrix columns in the dictionary's code dtype, zero-padded
to the longest word; the padding is never read, and the DP's integer type
comes from the query's length alone (see ``NaiveScanner.distances``).
"""

from __future__ import annotations

import numpy as np

from .distance import full_edit_distance
from .index import Dictionary, Match, Matches
from .neighborhood import _code_points

__all__ = ["NaiveScanner", "BKTree"]


class NaiveScanner:
    """Scans a fixed dictionary; encode once, query many times."""

    def __init__(self, dictionary: Dictionary):
        codes = dictionary.codes
        self._lengths = np.diff(dictionary.starts) - 1
        width = int(self._lengths.max(initial=0))
        # Column w of the matrix is word w, zero below its last character;
        # the line break after each word is left out.
        self._matrix = np.zeros((width, len(self._lengths)), dtype=codes.dtype)
        self._matrix.T[np.arange(width) < self._lengths[:, None]] = codes[codes != 10]

    def distances(self, query: str) -> np.ndarray:
        """Exact edit distance from ``query`` to every dictionary word.

        One DP row per query character, vectorized across all words, which
        are the matrix columns in the dictionary's dtype. Rows are kept
        shifted by their column index, which turns the in-row insertion
        dependency into a plain running minimum: a horizontal run of
        insertions costs exactly 1 per skipped column, so in shifted space
        it costs nothing. Entry j of a row depends only on the first j
        characters of a word, whose distance is read at its length, so the
        padding below a shorter word is never read. A shifted value
        D(i, j) - j, and each step towards it, lies within ±i, so the dtype
        is the narrowest that holds ±(len(query) + 1), whatever the word
        lengths. Raises TypeError for a query that is not a ``str``.
        """
        width, n = self._matrix.shape
        dtype = np.min_scalar_type(-len(query) - 2)
        # shifted row for the empty query prefix: D(0, j) - j = 0
        row = np.zeros((width + 1, n), dtype=dtype)
        staged = np.empty_like(row)
        vertical = np.empty((width, n), dtype=dtype)
        same = np.empty(self._matrix.shape, dtype=bool)
        for i, qc in enumerate(_code_points(query), 1):
            # in shifted space: diagonal costs -1 on equal characters and
            # 0 otherwise, deleting the query character costs +1, and an
            # insertion run costs 0, so it becomes a running minimum.
            np.equal(self._matrix, qc, out=same)
            np.subtract(row[:-1], same, out=staged[1:])
            np.add(row[1:], 1, out=vertical)
            np.minimum(staged[1:], vertical, out=staged[1:])
            staged[0] = i
            np.minimum.accumulate(staged, axis=0, out=staged)
            row, staged = staged, row
        return row[self._lengths, np.arange(n)] + self._lengths

    def scan(self, query: str, max_distance: int) -> list[Match]:
        """All words within ``max_distance``, sorted by (distance, id), as a
        list of ``Match``. Raises TypeError or ValueError for a
        ``max_distance`` that is not an int of at least 0."""
        dists = self.distances(query)
        matches = Matches._within(np.arange(len(dists)), dists, max_distance)
        return list(map(Match, matches.word_ids.tolist(), matches.distances.tolist()))


class BKTree:
    """Metric tree over a dictionary: each edge is labeled with the exact
    distance between child and parent, and queries prune edges whose label
    lies outside [v - d, v + d] by the triangle inequality.

    Node i is word i: words are inserted in dictionary order under word 0,
    the root, so trees and their traversal statistics are reproducible.
    ``_children[i]`` maps each edge label below node i to its child.
    """

    __slots__ = ("_words", "_children")

    @classmethod
    def build(cls, dictionary: Dictionary) -> "BKTree":
        if len(dictionary) == 0:
            raise ValueError("cannot build a BK-tree from an empty dictionary")
        words = dictionary.words
        children: list[dict[int, int]] = [{} for _ in words]
        for word_id in range(1, len(words)):
            node = 0
            while node != word_id:  # descend until the word lands as a new child
                dist = full_edit_distance(words[node], words[word_id])
                node = children[node].setdefault(dist, word_id)
        tree = cls.__new__(cls)
        tree._words, tree._children = words, children
        return tree

    def query(self, query: str, max_distance: int) -> tuple[Matches, int]:
        """Returns (the ``Matches`` within ``max_distance``, as
        ``FastSSIndex.search`` gives them, number of nodes visited). Each
        visit computes one distance, so the count is the traversal's
        search-space size, comparable to a candidate-set size. Raises
        TypeError for a query that is not a ``str``, and TypeError or
        ValueError for a ``max_distance`` that is not an int of at least 0."""
        if not isinstance(query, str):
            raise TypeError(f"query must be str, not {type(query).__name__}")
        visited = {}  # node: its distance to the query
        stack = [0]
        while stack:
            node = stack.pop()
            dist = visited[node] = full_edit_distance(self._words[node], query)
            low, high = dist - max_distance, dist + max_distance
            stack.extend(child for label, child in self._children[node].items()
                         if low <= label <= high)
        nodes, distances = zip(*sorted(visited.items()))  # the root is always visited
        return (Matches._within(np.array(nodes, dtype=np.intp), np.array(distances), max_distance),
                len(visited))
