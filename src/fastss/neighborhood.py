"""Deletion neighborhoods and residual-key hashing.

A residual of a word is what remains after deleting some character
positions. Two words within edit distance d always share a residual
reachable with at most d deletions from each side, so hashed residuals
make a lossless filter key. Each residual is reduced to a 64-bit FNV-1a
hash of a tag byte followed by its UTF-8 bytes. The tag byte keeps keys
of whole words, prefix halves and suffix halves in disjoint key spaces.

``residual_keys`` computes those hashes in one pass over the word without
building residual strings; ``full_neighborhood`` enumerates the strings
themselves and is the reference it is tested against. The hash is part of
the index file format and must stay bit-stable.
"""

from __future__ import annotations

from enum import IntEnum

__all__ = [
    "HalfTag",
    "full_neighborhood",
    "residual_keys",
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


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
    64-bit FNV-1a hash of the tag byte followed by each residual's UTF-8
    bytes. Deterministic and bit-stable; index files depend on it.

    Computed in one pass over the word, without building residual strings.
    ``h`` is the hash state of the prefix read so far, and ``deleted[j - 1]``
    holds the states of that prefix's residuals with ``j`` deletions. Each
    character advances every state over its bytes (the character kept),
    and the states with ``j`` deletions also take those with ``j - 1`` from
    before the character (the character deleted). Prefixes with equal
    states hash every continuation alike, so merging them loses no key: the
    result is exactly the set of hashes of ``full_neighborhood(word,
    max_deletions)``.
    """
    if max_deletions < 0:
        raise ValueError("max_deletions must be non-negative")
    prime, mask = _FNV_PRIME, _MASK64
    h = ((_FNV_OFFSET ^ tag) * prime) & mask
    deleted: list[set[int]] = []
    for char in word:
        data = char.encode("utf-8")
        if len(deleted) < max_deletions:
            deleted.append(set())
        # Highest level first, so that the level below is still the old one.
        for j in range(len(deleted) - 1, -1, -1):
            states = deleted[j]
            for byte in data:
                states = {((s ^ byte) * prime) & mask for s in states}
            if j:
                states |= deleted[j - 1]
            else:
                states.add(h)
            deleted[j] = states
        for byte in data:
            h = ((h ^ byte) * prime) & mask
    return set().union((h,), *deleted)
