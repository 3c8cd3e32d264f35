"""Levenshtein edit distance: a plain full-table version used as the ground
truth everywhere, and a bit-parallel kernel that computes the distances
from one query to a whole batch of words in one pass, one lane per word.
``edit_distance_verifier`` is that kernel on one word, against a fixed
distance threshold.

Strings are compared as sequences of Unicode code points; insertions,
deletions and substitutions all cost 1.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["full_edit_distance", "edit_distance_verifier", "edit_distances"]

# The number of set bits in each byte value.
_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], np.int64)


def full_edit_distance(a: str, b: str) -> int:
    """Exact edit distance between ``a`` and ``b``.

    Computes the complete dynamic-programming table (two rows at a time)
    with no shortcuts or early exits. Deliberately boring: every other
    distance computation in this package is checked against it.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)

    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        append = current.append
        for j, cb in enumerate(b, 1):
            append(min(current[j - 1] + 1,
                       previous[j] + 1,
                       previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def edit_distance_verifier(query: str, bound: int) -> Callable[[str], int | None]:
    """A function mapping a word to its edit distance from ``query`` when
    that is <= ``bound``, and to None otherwise."""
    if bound < 0:
        raise ValueError("bound must be non-negative")

    def verify(word: str) -> int | None:
        distance = int(edit_distances(query, [word])[0])
        return distance if distance <= bound else None

    return verify


def edit_distances(query: str, words: Sequence[str]) -> np.ndarray:
    """The edit distance from ``query`` to each of ``words``, as an int64
    array in the order of ``words``.

    Bit-vector dynamic programming (Myers 1999, in the global-distance form
    of Hyyrö 2001), run once per query character over all words at once.
    Each word is one lane of one Python int: bit i of a lane is row i of
    that word's table, and ``pv``/``mv`` hold the column's vertical +1/-1
    deltas. After the last column a lane's distance is
    ``len(query) + popcount(pv) - popcount(mv)``.

    Lanes are whole bytes and longer than every word. The match masks are
    cut to the words' ``rows`` and ``pv`` is kept within them, so ``mv``
    stays within them too: nothing is counted above a word, and no carry
    leaves a lane.
    """
    n = len(query)
    lengths = np.fromiter(map(len, words), np.int64, len(words))
    if not len(words):
        return lengths
    lanes, lane_bytes = len(words), int(lengths.max()) // 8 + 1
    width, size = 8 * lane_bytes, lanes * lane_bytes
    rows = int.from_bytes(np.packbits(np.arange(width) < lengths[:, None],
                                      bitorder="little"), "little")
    codes = np.array(words, f"<U{width}").view(np.uint32)  # code points, 0-padded
    chars = list(dict.fromkeys(query))
    points = np.fromiter(map(ord, chars), np.uint32, len(chars))
    matches = np.packbits(codes == points[:, None], axis=1, bitorder="little").tobytes()
    peq = {c: int.from_bytes(matches[i * size:(i + 1) * size], "little") & rows
           for i, c in enumerate(chars)}

    low = int.from_bytes(b"\x01".ljust(lane_bytes, b"\x00") * lanes, "little")
    pv, mv = rows, 0  # first column: D[i][0] = i
    for c in query:
        eq = peq[c]
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv) & rows
        mh = pv & xh
        # the carried-in 1 is the top row's horizontal delta, D[0][j] = j
        ph = (ph << 1) | low
        pv = ((mh << 1) | ~(xv | ph)) & rows
        mv = ph & xv

    # Each lane's +1 and -1 counts, from one int: mv's bits above pv's.
    both = pv | mv << (8 * size)
    counts = _POPCOUNT[np.frombuffer(both.to_bytes(2 * size, "little"), np.uint8)]
    plus, minus = counts.reshape(2, lanes, lane_bytes).sum(axis=2)
    return n + plus - minus
