"""Levenshtein edit distance: a plain full-table version used as the ground
truth everywhere, and a bit-parallel kernel that computes the distances
from one query to a whole batch of words in one pass, one lane per word.
The batch is one array of code points, each word followed by a ``"\n"``,
and each slot is one bit of a Python int: a lane is its word's rows plus
the spare bit of its ``"\n"``, which the kernel reads to find the lanes.
The index hands ``lane_distances`` a gather of the dictionary's own code
points, each word with its line break, and the lane starts.

Strings are compared as sequences of Unicode code points; insertions,
deletions and substitutions all cost 1.
"""

from __future__ import annotations

import numpy as np

__all__ = ["full_edit_distance"]


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


def lane_distances(query: str, codes: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    """The edit distance from ``query`` to the word of each lane of
    ``codes``, as an int64 array in lane order.

    ``codes`` holds code points in any unsigned integer dtype, and
    ``lanes`` the ascending start of each lane in it, the first at 0. A
    lane runs up to the next start, the last one to the end of ``codes``:
    its word, then its only ``"\n"``, whose slot is the lane's spare slot.
    The kernel finds the lanes by their ``"\n"``; ``lanes`` only sums them.

    Bit-vector dynamic programming (Myers 1999, in the global-distance form
    of Hyyrö 2001), run once per query character over all words at once.
    Bit i of one Python int is slot i of ``codes``, so each word is one
    lane: its rows, then its spare bit. ``pv``/``mv`` hold the column's
    vertical +1/-1 deltas, kept within the ``rows``. A carry out of a
    word's top row stops in its spare bit, and the shifted horizontal
    deltas take their top row's +1 from ``low``, so no lane reads its
    neighbour. After the last column a lane's distance is ``len(query)``
    plus its ``pv`` bits minus its ``mv`` bits, one sum per lane.

    A query character equal to ``"\n"``, or above the dtype's range, matches
    no row: every ``eq`` is masked by ``rows``. The loop makes no negative
    int: ``x ^ rows`` is ``~x & rows`` but where ``x`` leaves the rows. In
    ``ph``, a spare bit of ``xh``, set by the carry, does; the shift moves
    it to the next lane's first row, which ``low`` sets anyway, or out of
    the rows, where ``mv = ph & xv`` and the final ``& rows`` of ``pv`` drop
    it with every other bit there.
    """
    bits, size = len(codes), (len(codes) + 7) // 8
    # The characters compare in the dtype of the codes, which is several
    # times faster; the "\n" row comes first, and its bits are the spare bits.
    top = (1 << 8 * codes.itemsize) - 1
    chars = [c for c in dict.fromkeys("\n" + query) if ord(c) <= top]
    points = np.fromiter(map(ord, chars), codes.dtype, len(chars))
    matches = np.packbits(codes == points[:, None], axis=1, bitorder="little").tobytes()
    spare_bits = int.from_bytes(matches[:size], "little")
    rows = ((1 << bits) - 1) ^ spare_bits
    peq = {c: int.from_bytes(matches[i * size:(i + 1) * size], "little") & rows
           for i, c in enumerate(chars)}

    low = (spare_bits << 1 | 1) & rows  # the first row of every lane with a word
    pv, mv = rows, 0  # first column: D[i][0] = i
    for c in query:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (xh | pv) ^ rows
        mh = pv & xh
        # the carried-in 1 is the top row's horizontal delta, D[0][j] = j
        ph = ph << 1 | low
        pv = (mh << 1 | (xv | ph) ^ rows) & rows
        mv = ph & xv

    # pv's bits, then mv's, one 0/1 byte each
    both = np.unpackbits(np.frombuffer((pv | mv << 8 * size).to_bytes(2 * size, "little"),
                                       np.uint8), bitorder="little").view(np.int8)
    return np.add.reduceat(both[:bits] - both[8 * size:8 * size + bits], lanes,
                           dtype=np.int64) + len(query)
