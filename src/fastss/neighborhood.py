"""Deletion neighborhoods and residual-key hashing.

A residual of a word is what remains after deleting some character
positions. Two words within edit distance d always share a residual
reachable with at most d deletions from each side, so hashed residuals
make a lossless filter key. Each residual is reduced to a 32-bit FNV-1a
hash of a tag byte followed by its Unicode code points, one FNV step per
character. The tag byte keeps keys of whole words, prefix halves and
suffix halves in disjoint key spaces. Residuals of different words may
share a key; such a collision only adds a candidate, which verification
removes.

A state is one set of deleted positions. One layout, ``_deletion_sources``,
orders the states of a word length and says how each character extends
them, and two walkers hash by it without building residual strings:
``residual_keys`` is the scalar one, for one query, and
``residual_key_pairs`` the numpy one, for every word of a length at once
in an index build. ``full_neighborhood`` enumerates the residual strings
themselves and is the reference both are tested against. The hash is part
of the index file format and must stay bit-stable.
"""

from __future__ import annotations

import sys
from enum import IntEnum
from functools import lru_cache
from math import comb
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "HalfTag",
    "full_neighborhood",
    "residual_keys",
    "residual_key_pairs",
]

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193
_MASK32 = (1 << 32) - 1
_PRIME = np.uint32(_FNV_PRIME)
# A build packs each (key, word id) pair into one uint64, key << 32 | id,
# so that sorting the pairs sorts by key, then id. These are its key and id
# halves in memory.
_KEY_HALF, _ID_HALF = (1, 0) if sys.byteorder == "little" else (0, 1)

class HalfTag(IntEnum):
    """Key-space tag mixed into every residual hash."""

    WHOLE = 0x00
    PREFIX = 0x01
    SUFFIX = 0x02


def full_neighborhood(word: str, max_deletions: int) -> set[str]:
    """All distinct residuals reachable with at most ``max_deletions``
    deletions, the word itself included.

    Built one deletion level at a time: every residual with k + 1
    deletions is a residual with k deletions minus one more character, and
    duplicates collapse before the next level expands them.
    """
    if max_deletions < 0:
        raise ValueError("max_deletions must be non-negative")
    level = {word}
    out = set(level)
    for _ in range(min(max_deletions, len(word))):
        level = {r[:i] + r[i + 1:] for r in level for i in range(len(r))}
        out |= level
    return out


def residual_keys(word: str, max_deletions: int, tag: HalfTag) -> set[int]:
    """Hashed keys of the full deletion neighborhood of ``word``: the
    32-bit FNV-1a hash of the tag byte followed by each residual's code
    points, one step ``h = (h ^ code point) * prime mod 2**32`` per
    character. Deterministic and bit-stable; index files depend on it.
    Raises UnicodeEncodeError for a word with a lone surrogate.

    The scalar walker of the ``_deletion_sources`` layout: ``states`` holds
    one hash state per set of deleted positions of the prefix read so far.
    Each character advances every state by its code point (the character
    kept) and appends, from before that step, copies of the states with
    deletions to spare (the character deleted). Distinct sets can leave
    equal residuals, so the result is the set of the final states:
    exactly the hashes of ``full_neighborhood(word, max_deletions)``.
    """
    if max_deletions < 0:
        raise ValueError("max_deletions must be non-negative")
    word.encode("utf-32-le")  # as the build does: a lone surrogate raises
    prime, mask = _FNV_PRIME, _MASK32
    states = [((_FNV_OFFSET ^ tag) * prime) & mask]
    for point, source in zip(map(ord, word), _deletion_sources(len(word), max_deletions)):
        states = [((s ^ point) * prime) & mask for s in states] + [states[j] for j in source]
    return set(states)


Part = tuple[int, int, int, HalfTag]
"""Character range ``start:stop`` of a word, hashed with at most
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
    before allocating anything, if the states of all words reach 2**32,
    which a 32-bit id could not count.

    The numpy walker of the ``_deletion_sources`` layout that
    ``residual_keys`` runs for one word. One buffer of packed ``key << 32
    | id`` ``uint64`` pairs, sized by the states of every word, is
    allocated once. The words of one length are hashed in one numpy pass
    straight into their stretch of its key halves, viewed as a matrix with
    one row per word and one column per state; each character is one
    numpy step on the whole matrix (see ``_hash_part``). One sort in place
    puts a word's repeated keys side by side; they are dropped, and a
    second sort leaves the distinct pairs first, returned as views of
    their halves.
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
    if total >= 1 << 32:
        raise ValueError(f"the words have {total:,} residual states; 32-bit ids and "
                         f"offsets count at most {(1 << 32) - 1:,}")
    pairs = np.empty(total, dtype=np.uint64)
    halves = pairs.view(np.uint32).reshape(-1, 2)
    end = 0
    for length, group in groups.items():
        begin, end = end, end + len(group) * widths[length]
        states, ids = halves[begin:end, _KEY_HALF], halves[begin:end, _ID_HALF]
        # Assigning the shape raises rather than copy: both stay views.
        states.shape = ids.shape = (len(group), widths[length])
        ids[...] = group[:, None]
        chars = codes[starts[group, None] + np.arange(length)]
        column = 0
        for start, stop, max_deletions, tag in parts(length):
            column += _hash_part(states[:, column:], chars[:, start:stop],
                                 _deletion_sources(stop - start, max_deletions), tag)
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


@lru_cache(maxsize=128)
def _deletion_sources(length: int, max_deletions: int) -> tuple[tuple[int, ...], ...]:
    """Where the states of a part of ``length`` characters come from, one
    state per set of at most ``max_deletions`` deleted positions. The
    states before character i are those of the prefix read so far; reading
    character i appends copies of the states ``sources[i]``, those with
    deletions to spare, as the states that delete it. Both walkers read
    this one layout, so it is cached, and immutable so that neither can
    change a shared entry."""
    deletions = [0]
    sources = []
    for _ in range(length):
        source = tuple(column for column, count in enumerate(deletions) if count < max_deletions)
        sources.append(source)
        deletions += [deletions[column] + 1 for column in source]
    return tuple(sources)


def _hash_part(states: np.ndarray, chars: np.ndarray,
               sources: tuple[tuple[int, ...], ...], tag: HalfTag) -> int:
    """Hash the residuals of ``chars`` (code points, one row per word) into
    the first columns of ``states``, laid out by ``sources``; returns how
    many columns they fill."""
    states[:, 0] = ((_FNV_OFFSET ^ tag) * _FNV_PRIME) & _MASK32
    active = 1
    for i, source in enumerate(sources):
        grown = active + len(source)
        # Copies first, while the sources still lack character i.
        states[:, active:grown] = states[:, source]
        kept = states[:, :active]
        kept ^= chars[:, i, None]
        kept *= _PRIME
        active = grown
    return active

