"""Deletion neighborhoods and residual keys.

A residual of a word is what remains after deleting some character
positions. Two words within edit distance d always share a residual
reachable with at most d deletions from each side, so keyed residuals
make a lossless filter. Each residual r is reduced to a 32-bit
polynomial key over its Unicode code points (Karp and Rabin 1987):

    key(tag, r) = (C[tag] + sum over t of (r[t] + 1) * P**(t + 1)) mod 2**32

with one odd constant P and one offset C per tag. The offsets keep keys
of whole words, prefix halves and suffix halves apart, and the ``+ 1``
makes the length part of the key, so that ``"a"`` and ``"a\0"`` differ.
Residuals of different words may share a key; such a collision only adds
a candidate, which verification removes.

A state is one set of deleted positions of a part of a word. The key is
linear in the code points, so the keys of every state of every part of a
string of one length are one matrix product, ``W @ chars + c``: row s of
``W`` holds ``P**(rank + 1)`` at each position that state s keeps, rank
counting the kept positions before it, and ``c[s]`` holds the tag's offset
and the sum of the ``+ 1`` terms. ``_residual_plan`` makes and caches
``(W, c)`` once per length and parts. A query takes one product of its
code points (``residual_keys`` for one part, ``FastSSIndex.candidates``
for all of them), and ``residual_key_pairs`` one product per word length
for every word of an index build. ``full_neighborhood`` enumerates the
residual strings themselves and is the reference both are tested
against. Keys never leave the process: an index file holds only the
words, so the key may change without a change to the file.
"""

from __future__ import annotations

import sys
import threading
from enum import IntEnum
from functools import lru_cache
from itertools import chain, combinations
from math import comb
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "HalfTag",
    "full_neighborhood",
    "residual_keys",
]

_MASK32 = (1 << 32) - 1
# Knuth's multiplicative-hashing prime, about 2**32 over the golden ratio.
_P = 0x9E3779B1
# A build packs each (key, word id) pair into one uint64, key << 32 | id,
# so that sorting the pairs sorts by key, then id. These are its key and id
# halves in memory.
_KEY_HALF, _ID_HALF = (1, 0) if sys.byteorder == "little" else (0, 1)
# The most a build makes: plans of at most 2**28 bytes in all, 4 per state
# and character, and max(2**24, 256 per code point of input) residual
# states, but never 2**32, so that ids and offsets stay 32-bit. A state
# takes one 8-byte pair: 256 keep the buffer within 2 KiB per code point.
# The bundled list asks for 1.0, 4.2, 12.4 and 28.5 states per code point
# at d 1 to 4 unsplit and about 96 at d=6; 750 20-character words at d=20,
# a hostile 16 kB file, ask for about 50,000. Each plan a query makes, and
# the plans cached at once, are held to 2**28 bytes as well.
_PLAN_BYTES = 1 << 28
_MAX_STATES = 1 << 24
_STATES_PER_CODE_POINT = 256
_cached_plan_bytes, _plan_lock = 0, threading.Lock()  # see _residual_plan

class HalfTag(IntEnum):
    """Key-space tag, whose value is the offset C[tag] of every residual
    key under it: the first 32 bits of the fractions of the square roots
    of 2, 3 and 5."""

    WHOLE = 0x6A09E667
    PREFIX = 0xBB67AE85
    SUFFIX = 0x3C6EF372


def _code_points(text: str) -> np.ndarray:
    """The code points of ``text`` as a read-only little-endian ``uint32``
    array. Raises TypeError for anything but a ``str``, and
    UnicodeEncodeError for one with a lone surrogate."""
    if not isinstance(text, str):
        raise TypeError(f"expected str, not {type(text).__name__}")
    return np.frombuffer(text.encode("utf-32-le"), "<u4")


def _int_in(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` if it is an ``int``, not a ``bool``, in ``low..high``
    (``high`` None: no upper end). Otherwise raises TypeError or
    ValueError naming the parameter ``name``. Every count, distance and
    size a caller hands the library passes through here."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    if value < low or high is not None and value > high:
        span = f"at least {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {span}, not {value}")
    return value


def _read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array``, which the caller owns and hands over, after
    clearing its writeable flag: numpy refuses to set the flag again on a
    view of a read-only array, so only code that walks ``.base`` to the
    owner can write to it."""
    array.flags.writeable = False
    return array.view()


def full_neighborhood(word: str, max_deletions: int) -> set[str]:
    """All distinct residuals reachable with at most ``max_deletions``
    deletions, the word itself included.

    Built one deletion level at a time: every residual with k + 1
    deletions is a residual with k deletions minus one more character, and
    duplicates collapse before the next level expands them. Raises
    TypeError or ValueError for a ``max_deletions`` that is not an int
    of at least 0.
    """
    level = {word}
    out = set(level)
    for _ in range(min(_int_in(max_deletions, "max_deletions", 0), len(word))):
        level = {r[:i] + r[i + 1:] for r in level for i in range(len(r))}
        out |= level
    return out


def residual_keys(word: str, max_deletions: int, tag: HalfTag) -> set[int]:
    """Keys of the full deletion neighborhood of ``word``: exactly the
    keys of ``full_neighborhood(word, max_deletions)`` under ``tag``, as
    the module docstring defines them. Deterministic. Raises TypeError for
    a word that is not a ``str``, UnicodeEncodeError for one with a lone
    surrogate, ValueError for one whose plan would take more than 2**28
    bytes, and TypeError or ValueError for a ``max_deletions`` that is not
    an int of at least 0.

    The one-part case of ``_residual_plan``: one product of the word's code
    points. Distinct sets of deleted positions can leave equal residuals,
    whose equal keys the set collapses.
    """
    chars = _code_points(word)
    part = (0, len(word), _int_in(max_deletions, "max_deletions", 0), tag)
    weights, offsets = _residual_plan(len(word), (part,))
    return set((weights @ chars + offsets).tolist())


Part = tuple[int, int, int, HalfTag]
"""Character range ``start:stop`` of a word, keyed with at most
``max_deletions`` deletions under ``tag``: (start, stop, max_deletions, tag)."""


def residual_key_pairs(codes: np.ndarray, starts: np.ndarray,
                       parts: Callable[[int], Sequence[Part]]
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Every word's distinct residual keys with its word id, as two
    ``uint32`` arrays ``(keys, ids)``, the pairs sorted by key, then id.
    Word i is the code points ``codes[starts[i]:starts[i + 1] - 1]``: the
    words are laid out as in ``Dictionary``, each followed by one
    separator, which is not read.

    A word of length L contributes the union of ``residual_keys(word[start:
    stop], max_deletions, tag)`` over ``parts(L)``. Raises ValueError,
    before allocating anything, if the plans of all word lengths would
    take more than 2**28 bytes, or if the words have more than
    max(2**24, 256 * len(codes)) states, or 2**32 or more.

    One buffer of packed ``key << 32 | id`` ``uint64`` pairs, sized by the
    states of every word, is allocated once. The words of one length are
    keyed by one product with that length's ``_residual_plan``, written
    straight into their stretch of its key halves, viewed as a matrix with
    one row per word and one column per state. One sort in place puts a
    word's repeated keys side by side; they are dropped, and a second sort
    leaves the distinct pairs first, returned as views of their halves.
    """
    lengths = np.diff(starts) - 1
    # Not np.unique: its first call imports numpy.ma, about 0.5 MB that a
    # build would leave resident.
    groups = {int(length): np.flatnonzero(lengths == length)
              for length in np.flatnonzero(np.bincount(lengths))}
    widths = {length: sum(_state_count(stop - start, max_deletions)
                          for start, stop, max_deletions, _ in parts(length))
              for length in groups}
    total = sum(len(group) * widths[length] for length, group in groups.items())
    plan_bytes = {length: 4 * width * length for length, width in widths.items()}
    if sum(plan_bytes.values()) > _PLAN_BYTES:
        largest = max(plan_bytes, key=plan_bytes.get)
        raise ValueError(f"the words' residual plans would take {sum(plan_bytes.values()):,} "
                         f"bytes, more than {_PLAN_BYTES:,}; the largest, for "
                         f"{largest}-character words, has {widths[largest]:,} states")
    max_states = min(max(_MAX_STATES, _STATES_PER_CODE_POINT * len(codes)), (1 << 32) - 1)
    if total > max_states:
        raise ValueError(f"the words have {total:,} residual states, more than "
                         f"{max_states:,}; a smaller d or split threshold makes fewer")
    pairs = np.empty(total, dtype=np.uint64)
    halves = pairs.view(np.uint32).reshape(-1, 2)
    end = 0
    for length, group in groups.items():
        begin, end = end, end + len(group) * widths[length]
        states, ids = halves[begin:end, _KEY_HALF], halves[begin:end, _ID_HALF]
        # Assigning the shape raises rather than copy: both stay views.
        states.shape = ids.shape = (len(group), widths[length])
        weights, offsets = _residual_plan(length, tuple(parts(length)))
        ids[...] = group[:, None]
        np.matmul(codes[starts[group, None] + np.arange(length)], weights.T, out=states)
        states += offsets
    pairs.sort()
    # Sorted, a word's repeated keys are equal neighbours. They become
    # all-ones pairs, which sort last; a real all-ones pair would equal them
    # and still sort inside ``distinct``. Masked assignment builds no index
    # array, and logical_not pages in less code than ``~``; RSS counts both.
    repeats = _run_starts(pairs)
    np.logical_not(repeats, out=repeats)
    pairs[repeats] = (1 << 64) - 1
    distinct = total - int(np.count_nonzero(repeats))
    pairs.sort()
    return halves[:distinct, _KEY_HALF], halves[:distinct, _ID_HALF]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one
    before them: the first of each run of equal values."""
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


def _state_count(length: int, max_deletions: int) -> int:
    """Sets of at most ``max_deletions`` of ``length`` positions."""
    return sum(comb(length, k) for k in range(min(length, max_deletions) + 1))


class _PlanTooLarge(ValueError):
    """A plan of more than 2**28 bytes, which ``_residual_plan`` refuses."""


@lru_cache(maxsize=128)
def _residual_plan(length: int, parts: tuple[Part, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``(W, c)``, such that ``W @ chars + c`` are the keys of every state
    of ``parts`` of a string of ``length`` code points ``chars``, one row
    per state, the parts' states in order: ``_state_count(stop - start,
    max_deletions)`` rows each. ``W`` is ``uint32`` with one column per
    character and ``c`` ``uint32``; both are read-only views
    (``_read_only``), as queries, builds and threads share the cached
    entries. A part's states are taken by deletion count, each count's
    sets of kept positions in lexicographic order.
    Raises ``_PlanTooLarge``, before allocating, for a plan of more than 2**28
    bytes. Only a miss runs this body, and it counts the bytes of the plans
    it caches: one that would take them past 2**28 clears the cache first.
    An eviction leaves the count as it is, so it clears early, never late.
    """
    global _cached_plan_bytes
    rows = sum(_state_count(stop - start, k) for start, stop, k, _ in parts)
    size = 4 * rows * length
    if size > _PLAN_BYTES:
        raise _PlanTooLarge(f"a residual plan of {rows:,} states for {length} characters "
                            f"would take {size:,} bytes, more than {_PLAN_BYTES:,}")
    with _plan_lock:
        if _cached_plan_bytes + size > _PLAN_BYTES:
            _residual_plan.cache_clear()
            _cached_plan_bytes = 0
        _cached_plan_bytes += size
    # powers[t] = P**t; sums[n] = sum of P**(t + 1) for t < n, the + 1
    # terms of n characters.
    powers, sums = [1], [0]
    for _ in range(length):
        powers.append(powers[-1] * _P & _MASK32)
        sums.append((sums[-1] + powers[-1]) & _MASK32)
    weights = np.zeros((rows, length), dtype=np.uint32)
    offsets = np.empty(rows, dtype=np.uint32)
    row = 0
    for start, stop, max_deletions, tag in parts:
        size = stop - start
        for deleted in range(min(size, max_deletions) + 1):
            count, width = comb(size, deleted), size - deleted
            # The positions each state keeps, ascending: rank t gets P**(t + 1).
            # In the narrowest type, as for a long part it is about as large as W.
            kept = np.fromiter(chain.from_iterable(combinations(range(start, stop), width)),
                               np.min_scalar_type(stop), count * width).reshape(count, width)
            weights[np.arange(row, row + count)[:, None], kept] = powers[1:width + 1]
            offsets[row:row + count] = (tag + sums[width]) & _MASK32
            row += count
    return _read_only(weights), _read_only(offsets)
