"""Levenshtein edit distance: a plain full-table version used as the ground
truth everywhere, and a bit-vector verifier that checks candidates against
a fixed distance threshold.

Strings are compared as sequences of Unicode code points; insertions,
deletions and substitutions all cost 1.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["full_edit_distance", "edit_distance_verifier"]


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
    that is <= ``bound``, and to None otherwise.

    Bit-vector dynamic programming (Myers 1999, in the global-distance form
    of Hyyrö 2001): one column of the table per word character, held as
    the vertical +1/-1 deltas ``pv``/``mv`` of a ``len(query)``-bit int.
    The per-character match masks of the query are built once here and
    shared by every word the returned function checks.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    n = len(query)
    if not n:
        return lambda word: len(word) if len(word) <= bound else None
    mask = (1 << n) - 1
    last = 1 << (n - 1)
    peq: dict[str, int] = {}
    for i, c in enumerate(query):
        peq[c] = peq.get(c, 0) | (1 << i)

    def verify(word: str) -> int | None:
        if abs(len(word) - n) > bound:
            return None  # length difference is a lower bound for the distance
        pv, mv, score = mask, 0, n  # first column: D[i][0] = i
        for c in word:
            eq = peq.get(c, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (~(xh | pv) & mask)
            mh = pv & xh
            # score follows the bottom row, D[n][j]
            if ph & last:
                score += 1
            elif mh & last:
                score -= 1
            # the carried-in 1 is the top row's horizontal delta, D[0][j] = j
            ph = ((ph << 1) | 1) & mask
            mh = (mh << 1) & mask
            pv = mh | (~(xv | ph) & mask)
            mv = ph & xv
        return score if score <= bound else None

    return verify
