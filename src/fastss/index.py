"""Residual-key index over a word dictionary with lossless approximate
queries.

Every dictionary word contributes the hashed residuals of its deletion
neighborhood; a query probes the same keys and verifies the surviving
candidates with one bit-vector edit-distance verifier per query. Words
longer than the splitting threshold are instead split in half and each
half is indexed with half the error budget, which shrinks the index
dramatically while queries compensate by probing several split positions.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .distance import edit_distance_verifier
from .neighborhood import HalfTag, residual_keys

__all__ = [
    "Dictionary",
    "IndexParams",
    "IndexStats",
    "Match",
    "FastSSIndex",
    "IndexFormatError",
    "split_word",
    "split_positions",
]

UNBOUNDED_SENTINEL = 0xFFFFFFFF
_MAGIC = b"FSSI"
_VERSION = 1


class Dictionary:
    """Ordered list of unique, non-empty ``str`` words. A word's position
    is its permanent id."""

    __slots__ = ("_words", "_ids")

    def __init__(self, words: Iterable[str]):
        self._words = tuple(words)
        self._ids: dict[str, int] = {}
        for i, w in enumerate(self._words):
            if not isinstance(w, str):
                raise TypeError(f"word {i} must be str, not {type(w).__name__}")
            if not w:
                raise ValueError(f"empty word at position {i}")
            if w in self._ids:
                raise ValueError(f"duplicate word {w!r} at position {i}")
            self._ids[w] = i

    @property
    def words(self) -> tuple[str, ...]:
        return self._words

    def id_of(self, word: str) -> int:
        return self._ids[word]

    def __contains__(self, word: str) -> bool:
        return word in self._ids

    def __len__(self) -> int:
        return len(self._words)

    def __getitem__(self, word_id: int) -> str:
        return self._words[word_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self._words)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dictionary) and self._words == other._words

    def __repr__(self) -> str:
        return f"Dictionary({len(self._words)} words)"

    def mean_length(self) -> float:
        if not self._words:
            return 0.0
        return sum(map(len, self._words)) / len(self._words)


@dataclass(frozen=True)
class IndexParams:
    """Build-time parameters, fixed for the life of an index.

    ``max_distance`` is the largest edit distance queries can ask for.
    ``split_threshold`` is the word length above which entries are split
    (None: never split). A finite threshold must exceed ``max_distance``:
    otherwise queries shorter than 2 characters cannot probe any split
    position and matches for split words would be lost.
    """

    max_distance: int
    split_threshold: int | None = None

    def __post_init__(self):
        if self.max_distance < 0:
            raise ValueError("max_distance must be non-negative")
        if self.split_threshold is not None:
            if self.split_threshold < 1:
                raise ValueError("split_threshold must be positive")
            if self.split_threshold <= self.max_distance:
                raise ValueError(
                    "split_threshold must exceed max_distance to keep "
                    "split-word queries lossless"
                )

    @property
    def half_budget(self) -> int:
        """Error budget for each half of a split word."""
        return (self.max_distance + 1) // 2


@dataclass(frozen=True)
class IndexStats:
    stored_pairs: int
    distinct_keys: int


class Match(NamedTuple):
    word_id: int
    distance: int


def split_word(word: str) -> tuple[str, str]:
    """Split into (first ceil(len/2) characters, remainder). The halves
    differ in length by at most one, longer half first."""
    if len(word) < 2:
        raise ValueError("cannot split a word shorter than 2 characters")
    cut = (len(word) + 1) // 2
    return word[:cut], word[cut:]


def split_positions(length: int, max_distance: int) -> list[int]:
    """Query split positions to probe: all cut points within
    ceil(length/2) +/- ceil(max_distance/2), clamped so both parts are
    non-empty. Empty for queries shorter than 2 characters.

    Why this window loses no match. Let a word w of length n be split at
    c = ceil(n/2) and let a query q be within e <= d edits of w. An optimal
    alignment of w and q maps the cut c to some cut t of q, with
    ed(w[:c], q[:t]) = e1, ed(w[c:], q[t:]) = e2 and e1 + e2 <= e. The
    halves change length by a = t - c and b = (len(q) - t) - (n - c), with
    |a| <= e1 and |b| <= e2. Rounding each ceil moves it by at most 1/2, so
    t - ceil(len(q)/2) lies within (a - b)/2 +/- 1/2; it is an integer of
    size at most (d + 1)/2, hence at most ceil(d/2), and t is in the
    window. One half is then within floor(d/2) <= ceil(d/2) edits, the
    budget each half is indexed with. If the clamp excludes t (t is 0 or
    len(q)), the probe at 1 or len(q) - 1 costs at most one edit more in
    total, e1 + e2 <= d + 1, and one half is still within ceil(d/2). A
    split word has n > m > d, so len(q) >= 2 and the window is non-empty.
    """
    if length < 2:
        return []
    center = (length + 1) // 2
    spread = (max_distance + 1) // 2
    low = max(1, center - spread)
    high = min(length - 1, center + spread)
    return list(range(low, high + 1))


class FastSSIndex:
    """Immutable residual-key index bound to the dictionary it was built
    from. Build once, then query from any number of threads."""

    __slots__ = ("_dictionary", "_params", "_table", "_stats", "_longest")

    def __init__(self, dictionary: Dictionary, params: IndexParams,
                 table: dict[int, list[int]], stats: IndexStats):
        self._dictionary = dictionary
        self._params = params
        self._table = table
        self._stats = stats
        self._longest = max(map(len, dictionary), default=0)

    @classmethod
    def build(cls, dictionary: Dictionary, params: IndexParams) -> "FastSSIndex":
        """Index every word's residual keys; words longer than the split
        threshold contribute the keys of their two halves instead."""
        d = params.max_distance
        m = params.split_threshold
        half = params.half_budget
        table: dict[int, list[int]] = {}
        stored = 0
        for word_id, word in enumerate(dictionary):
            if m is None or len(word) <= m:
                keys = residual_keys(word, d, HalfTag.WHOLE)
            else:
                prefix, suffix = split_word(word)
                keys = residual_keys(prefix, half, HalfTag.PREFIX)
                keys |= residual_keys(suffix, half, HalfTag.SUFFIX)
            stored += len(keys)
            for key in keys:
                ids = table.get(key)
                if ids is None:
                    table[key] = [word_id]
                else:
                    ids.append(word_id)
        return cls(dictionary, params, table, IndexStats(stored, len(table)))

    @property
    def dictionary(self) -> Dictionary:
        return self._dictionary

    @property
    def params(self) -> IndexParams:
        return self._params

    @property
    def stats(self) -> IndexStats:
        return self._stats

    def candidates(self, query: str) -> set[int]:
        """Word ids sharing at least one residual key with the query.

        Guaranteed to contain every word within ``max_distance`` of the
        query; hash collisions may add extras, which verification removes.
        Raises TypeError for a query that is not a ``str``.
        """
        if not isinstance(query, str):
            raise TypeError(f"query must be str, not {type(query).__name__}")
        d = self._params.max_distance
        m = self._params.split_threshold
        found: set[int] = set()

        # No word matches a query more than d characters longer than the
        # longest word, so such a query costs nothing to enumerate.
        if len(query) > self._longest + d:
            return found

        keys: set[int] = set()
        # Whole-word probe: an unsplit word has length <= m, so a match
        # implies len(query) <= m + d. Unbounded m never splits.
        if m is None or len(query) <= m + d:
            keys |= residual_keys(query, d, HalfTag.WHOLE)

        # Split probes: a split word has length >= m + 1, so a match
        # implies len(query) >= m + 1 - d.
        if m is not None and len(query) >= m - d + 1:
            half = self._params.half_budget
            for cut in split_positions(len(query), d):
                keys |= residual_keys(query[:cut], half, HalfTag.PREFIX)
                keys |= residual_keys(query[cut:], half, HalfTag.SUFFIX)

        table = self._table
        for key in keys:
            ids = table.get(key)
            if ids is not None:
                found.update(ids)
        return found

    def search(self, query: str) -> list[Match]:
        """All dictionary words within ``max_distance`` of the query,
        sorted by (distance, word id). Exactly the naive-scan result set.
        Raises TypeError for a query that is not a ``str``."""
        found = self.candidates(query)
        verify = edit_distance_verifier(query, self._params.max_distance)
        words = self._dictionary
        matches = []
        for word_id in found:
            distance = verify(words[word_id])
            if distance is not None:
                matches.append(Match(word_id, distance))
        matches.sort(key=lambda match: (match.distance, match.word_id))
        return matches

    def __eq__(self, other) -> bool:
        return (isinstance(other, FastSSIndex)
                and self._dictionary == other._dictionary
                and self._params == other._params
                and self._table == other._table)

    def __repr__(self) -> str:
        return (f"FastSSIndex(d={self._params.max_distance}, "
                f"m={self._params.split_threshold}, "
                f"words={len(self._dictionary)}, "
                f"pairs={self._stats.stored_pairs})")

    # -- on-disk format ----------------------------------------------------
    #
    # Little-endian:  magic "FSSI" | version u16 | d u8 | m u32 (0xFFFFFFFF
    # = never split) | word count u32 | words as (u16 UTF-8 byte length,
    # bytes) | distinct key count u64 | per key: key u64, id count u32,
    # ascending u32 word ids.

    def to_bytes(self) -> bytes:
        d = self._params.max_distance
        m = self._params.split_threshold
        if d > 0xFF:
            raise ValueError("max_distance does not fit the file format (u8)")
        if m is not None and m >= UNBOUNDED_SENTINEL:
            raise ValueError("split_threshold does not fit the file format (u32)")
        out = bytearray()
        out += _MAGIC
        out += struct.pack("<HBI", _VERSION, d,
                           UNBOUNDED_SENTINEL if m is None else m)
        out += struct.pack("<I", len(self._dictionary))
        for word in self._dictionary:
            encoded = word.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise ValueError(f"word too long for file format: {word[:32]!r}...")
            out += struct.pack("<H", len(encoded))
            out += encoded
        out += struct.pack("<Q", len(self._table))
        for key in sorted(self._table):
            ids = self._table[key]
            out += struct.pack("<QI", key, len(ids))
            out += struct.pack(f"<{len(ids)}I", *ids)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "FastSSIndex":
        reader = _Reader(data)
        magic = reader.take(4, "magic")
        if magic != _MAGIC:
            raise IndexFormatError(f"bad magic {magic!r} at byte 0")
        version, d, m_raw = reader.unpack("<HBI", "header")
        if version != _VERSION:
            raise IndexFormatError(f"unsupported format version {version} at byte 4")
        m = None if m_raw == UNBOUNDED_SENTINEL else m_raw
        try:
            params = IndexParams(d, m)
        except ValueError as exc:
            raise IndexFormatError(f"invalid parameters in header: {exc}") from exc

        (word_count,) = reader.unpack("<I", "word count")
        words = []
        for i in range(word_count):
            (byte_len,) = reader.unpack("<H", f"length of word {i}")
            raw = reader.take(byte_len, f"bytes of word {i}")
            try:
                words.append(raw.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise IndexFormatError(
                    f"word {i} is not valid UTF-8 (at byte {reader.offset - byte_len})"
                ) from exc
        try:
            dictionary = Dictionary(words)
        except ValueError as exc:
            raise IndexFormatError(f"invalid dictionary: {exc}") from exc

        (key_count,) = reader.unpack("<Q", "key count")
        table: dict[int, list[int]] = {}
        stored = 0
        for k in range(key_count):
            key, id_count = reader.unpack("<QI", f"entry {k}")
            ids = list(reader.unpack(f"<{id_count}I", f"ids of entry {k}"))
            if key in table:
                raise IndexFormatError(f"duplicate key {key:#x} in entry {k}")
            previous = -1
            for word_id in ids:
                if word_id >= word_count:
                    raise IndexFormatError(
                        f"word id {word_id} out of range in entry {k}")
                if word_id <= previous:
                    raise IndexFormatError(
                        f"word ids not strictly ascending in entry {k}")
                previous = word_id
            table[key] = ids
            stored += id_count
        if reader.offset != len(data):
            raise IndexFormatError(
                f"{len(data) - reader.offset} trailing bytes at byte {reader.offset}")
        return cls(dictionary, params, table, IndexStats(stored, len(table)))


class IndexFormatError(ValueError):
    """Raised when serialized index bytes cannot be parsed."""


class _Reader:
    __slots__ = ("data", "offset")

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, count: int, what: str) -> bytes:
        if self.offset + count > len(self.data):
            raise IndexFormatError(
                f"truncated while reading {what} at byte {self.offset}")
        chunk = self.data[self.offset:self.offset + count]
        self.offset += count
        return chunk

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))
