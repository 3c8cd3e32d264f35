"""Deletion neighborhoods and residual-key hashing.

A residual of a word is what remains after deleting some character
positions. Two words within edit distance d always share a residual
reachable with at most d deletions from each side, so hashed residuals
make a lossless filter key. Residual strings are never stored: each one is
reduced to a 64-bit FNV-1a hash of a tag byte followed by its UTF-8 bytes.
The tag byte keeps keys of whole words, prefix halves and suffix halves in
disjoint key spaces.

The hash is part of the index file format and must stay bit-stable.
"""

from __future__ import annotations

from enum import IntEnum

__all__ = [
    "HalfTag",
    "full_neighborhood",
    "hash_residual",
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


def hash_residual(tag: HalfTag, residual: str) -> int:
    """64-bit FNV-1a over the tag byte followed by the residual's UTF-8
    bytes. Deterministic and bit-stable; serialized index files depend on
    it."""
    h = ((_FNV_OFFSET ^ tag) * _FNV_PRIME) & _MASK64
    for byte in residual.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def residual_keys(word: str, max_deletions: int, tag: HalfTag) -> set[int]:
    """Hashed keys of the full deletion neighborhood of ``word``."""
    return {hash_residual(tag, r) for r in full_neighborhood(word, max_deletions)}
