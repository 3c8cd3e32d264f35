"""Levenshtein edit distance: a plain full-table version used as the ground
truth everywhere, and a bit-parallel kernel that computes the distances
from one query to a whole batch of words in one pass, one lane per word.
The batch is one text, each word followed by a line break, and each of its
characters is one bit of a Python int: a lane is its word's rows plus the
spare bit at the line break. ``lane_distances`` takes that text, so its
words contain no line break.

Strings are compared as sequences of Unicode code points; insertions,
deletions and substitutions all cost 1.
"""

from __future__ import annotations

import numpy as np

__all__ = ["full_edit_distance", "lane_distances"]


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


def lane_distances(query: str, text: str) -> np.ndarray:
    """The edit distance from ``query`` to each word of ``text``, the words
    each followed by one ``"\n"``, as an int64 array in text order.

    Bit-vector dynamic programming (Myers 1999, in the global-distance form
    of Hyyrö 2001), run once per query character over all words at once.
    Bit i of one Python int is character i of ``text``, so each word is one
    lane: its rows, then one spare bit at its line break. ``pv``/``mv``
    hold the column's vertical +1/-1 deltas, kept within the ``rows``. A
    carry out of a word's top row stops in its spare bit, and the shifted
    horizontal deltas take their top row's +1 from ``low``, so no lane
    reads its neighbour. After the last column a lane's distance is
    ``len(query)`` plus its ``pv`` bits minus its ``mv`` bits: the steps of
    one running sum of ``pv - mv`` from one lane end to the next.
    """
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), "<u4")
    spare = codes == 10
    ends = spare.nonzero()[0]
    if not len(ends):
        return np.zeros(0, np.int64)
    bits, size = len(codes), (len(codes) + 7) // 8
    spare_bits = int.from_bytes(np.packbits(spare, bitorder="little").tobytes(), "little")
    rows = ((1 << bits) - 1) ^ spare_bits
    chars = "".join(dict.fromkeys(query))
    points = np.frombuffer(chars.encode("utf-32-le", "surrogatepass"), "<u4")
    matches = np.packbits(codes == points[:, None], axis=1, bitorder="little").tobytes()
    peq = {c: int.from_bytes(matches[i * size:(i + 1) * size], "little") & rows
           for i, c in enumerate(chars)}

    low = ((spare_bits << 1) | 1) & rows  # the first row of every lane
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

    # pv's bits, then mv's, one 0/1 byte each
    both = np.unpackbits(np.frombuffer((pv | mv << 8 * size).to_bytes(2 * size, "little"),
                                       np.uint8), bitorder="little").view(np.int8)
    totals = (both[:bits] - both[8 * size:8 * size + bits]).cumsum(dtype=np.int64)[ends]
    totals[1:] -= totals[:-1].copy()
    totals += len(query)
    return totals
