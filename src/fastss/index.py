"""Residual-key index over a word dictionary with lossless approximate
queries.

The ``Dictionary`` holds its words once, as one array of code points, each
word followed by a line break, and every layer reads them from there.
Every dictionary word contributes the keys of the residuals of its
deletion neighborhood; a query probes the same keys and verifies all
surviving candidates in one bit-parallel pass over their words gathered
from that array with their line breaks, which mark the kernel's lanes.
Words longer than the splitting threshold m are instead stored as two
halves of floor(d/2) edits each, which shrinks the index dramatically,
while queries compensate by probing several split positions.
``IndexParams.word_parts`` and ``IndexParams.query_parts`` are that plan.

Keys are linear in the code points, so one cached plan per length and
parts, ``_residual_plan``, turns them into one matrix product: a build
keys every word of one length with one product (``residual_key_pairs``)
into the posting table, and a query keys every part it probes with one
product of its code points and looks them all up with one binary search
of its sorted keys. ``candidates`` returns the ids as one ascending
array, and ``search`` keeps them in arrays to the end: its answer,
``Matches``, is the matching ids and their distances as two arrays, so no
Python code runs and no Python object is made once per candidate or per
match; neither build nor search makes a ``str`` of a word. The file is a
19-byte header and the words, as one UTF-8 block; loading rebuilds the
table from them, so the keys never leave the process and may change
without a change to the file.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .distance import lane_distances
from .neighborhood import (HalfTag, Part, _code_points, _int_in, _PlanTooLarge, _read_only,
                           _residual_plan, _run_starts, residual_key_pairs)

__all__ = [
    "Dictionary",
    "IndexParams",
    "IndexStats",
    "Match",
    "Matches",
    "FastSSIndex",
    "IndexFormatError",
    "split_word",
    "split_positions",
]

UNBOUNDED_SENTINEL = 0xFFFFFFFF
_MAGIC = b"FSSI"
_VERSION = 9
# magic, version, d, m and the words' byte length W; the words start at byte 19
_HEADER = struct.Struct("<4sHBIQ")


class Dictionary:
    """Ordered list of unique, non-empty ``str`` words without line breaks.
    A word's position is its permanent id.

    The words are held once, as ``codes``: the code points of
    ``"\n".join(words) + "\n"`` in the narrowest unsigned dtype that holds
    them (``uint8`` for ASCII), with ``starts``, where word i begins, and
    ``len(codes)`` last, so that ``codes[starts[i]:starts[i + 1]]`` is word i
    and its ``"\n"``. Both arrays are read-only views (``_read_only``),
    which cannot be made writable again. The words are decoded as
    ``str`` only when asked for. Raises UnicodeEncodeError for a word with
    a lone surrogate, which has no code point to store.
    """

    __slots__ = ("_codes", "_starts")

    def __init__(self, words: Iterable[str]):
        words = tuple(words)
        try:
            text = "\n".join(words)
            lines = text.count("\n") + 1
        except TypeError:  # a word that is not a str
            lines = 0
        # Whole-list checks; only when one fails, the per-word loop below
        # names the first offending word.
        if words and not (lines == len(words) and "" not in words
                          and len(set(words)) == len(words)):
            seen: set[str] = set()
            for i, w in enumerate(words):
                if not isinstance(w, str):
                    raise TypeError(f"word {i} must be str, not {type(w).__name__}")
                if not w:
                    raise ValueError(f"empty word at position {i}")
                if "\n" in w:
                    raise ValueError(f"word {w!r} at position {i} contains a line break")
                if w in seen:
                    raise ValueError(f"duplicate word {w!r} at position {i}")
                seen.add(w)
        codes = _code_points(text + "\n" if words else "")
        codes = codes.astype(np.min_scalar_type(int(codes.max(initial=0))))
        starts = np.zeros(len(words) + 1, dtype=np.int64)
        starts[1:] = np.flatnonzero(codes == 10) + 1
        self._codes, self._starts = _read_only(codes), _read_only(starts)

    @property
    def codes(self) -> np.ndarray:
        return self._codes

    @property
    def starts(self) -> np.ndarray:
        return self._starts

    @property
    def words(self) -> tuple[str, ...]:
        return tuple(_decode(self._codes[:-1]).split("\n")) if len(self) else ()

    def __len__(self) -> int:
        return len(self._starts) - 1

    def __getitem__(self, word_id: int) -> str:
        i = range(len(self))[word_id]  # negative ids count from the end
        return _decode(self._codes[self._starts[i]:self._starts[i + 1] - 1])

    def __iter__(self) -> Iterator[str]:
        return iter(self.words)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dictionary) and np.array_equal(self._codes, other._codes)

    def __repr__(self) -> str:
        return f"Dictionary({len(self)} words)"

    def mean_length(self) -> float:
        """Mean characters per word: every code point but the line breaks."""
        return (len(self._codes) - len(self)) / len(self) if len(self) else 0.0


def _decode(codes: np.ndarray) -> str:
    """The ``str`` of an array of code points."""
    return codes.astype("<u4").tobytes().decode("utf-32-le")


@dataclass(frozen=True)
class IndexParams:
    """Build-time parameters, fixed for the life of an index.

    ``max_distance`` is the largest edit distance queries can ask for.
    ``split_threshold`` is the word length above which entries are split
    (None: never split). Both admit exactly what the file's header holds,
    so that every index that builds can be saved: d in 0..255, a u8, and a
    finite m in 1..0xFFFFFFFE, a u32 less ``UNBOUNDED_SENTINEL`` (m = 0 is
    out: a split word needs two characters), and each must be an ``int``,
    not a ``bool``: ``_int_in`` raises TypeError or ValueError naming the
    field and its width otherwise. ``word_parts`` and
    ``query_parts`` are the parts (``Part`` tuples) a word stores and a
    query probes.
    """

    max_distance: int
    split_threshold: int | None = None

    def __post_init__(self):
        _int_in(self.max_distance, "max_distance (u8)", 0, 0xFF)
        if self.split_threshold is not None:
            _int_in(self.split_threshold, "split_threshold (u32)", 1, UNBOUNDED_SENTINEL - 1)

    def word_parts(self, length: int) -> list[Part]:
        """The parts a word of ``length`` characters stores: the whole word
        with d deletions, or above m its halves at the cut of
        ``split_positions(length, 0)``, with floor(d/2) each."""
        d, m = self.max_distance, self.split_threshold
        if m is None or length <= m:
            return [(0, length, d, HalfTag.WHOLE)]
        cut, = split_positions(length, 0)
        return [(0, cut, d // 2, HalfTag.PREFIX), (cut, length, d // 2, HalfTag.SUFFIX)]

    def query_parts(self, length: int) -> list[Part]:
        """The parts a query of ``length`` characters probes. The whole
        query with d deletions if an unsplit word (length <= m) can match,
        that is if length <= m + d; unbounded m never splits. Both halves at
        every cut of ``split_positions``, floor(d/2) each (see there for
        why), if a split word (length >= m + 1) can match: length >= m + 1 - d."""
        d, m = self.max_distance, self.split_threshold
        parts = [(0, length, d, HalfTag.WHOLE)] if m is None or length <= m + d else []
        if m is not None and length >= m - d + 1:
            for cut in split_positions(length, d):
                parts.append((0, cut, d // 2, HalfTag.PREFIX))
                parts.append((cut, length, d // 2, HalfTag.SUFFIX))
        return parts


@dataclass(frozen=True)
class IndexStats:
    stored_pairs: int
    distinct_keys: int


class Match(NamedTuple):
    word_id: int
    distance: int


class Matches:
    """The answer of ``FastSSIndex.search`` and ``BKTree.query``:
    ``word_ids``, an ``intp`` array, and ``distances``, the narrowest
    unsigned dtype that holds the d asked for (``uint8`` for ``search``,
    whose d fits a byte), sorted by (distance, word id). Both arrays are
    the answer's own, writable and complete when the search returns; every
    searcher builds it with ``_within``.

    It reads as a sequence of plain ``(word_id, distance)`` pairs of ints:
    iterating converts both arrays with one ``tolist`` each, an int index
    gives one pair and a slice gives a ``Matches`` of copies. It equals
    another ``Matches`` with equal arrays, and any other iterable, such as
    the list of ``Match`` that ``NaiveScanner.scan`` returns, with the same
    pairs in the same order.
    """

    __slots__ = ("word_ids", "distances")

    def __init__(self, word_ids: np.ndarray, distances: np.ndarray):
        self.word_ids, self.distances = word_ids, distances

    @classmethod
    def _within(cls, ids: np.ndarray, distances: np.ndarray, max_distance: int) -> "Matches":
        """The answer of every searcher: of the ascending ``ids`` and their
        ``distances``, the ones within ``max_distance``, in fresh arrays,
        sorted by (distance, word id). Raises TypeError or ValueError for a
        ``max_distance`` that is not an int of at least 0 (``_int_in``): a
        ``bool`` or ``float`` d would set the distances' dtype, and no
        distance is within a negative one."""
        near = np.flatnonzero(distances <= _int_in(max_distance, "max_distance", 0))
        # Every distance left is at most d, so the narrowest type that holds
        # d holds them all; numpy's stable sort of an 8- or 16-bit key is a
        # radix sort, and it keeps the ascending ids within a distance.
        distances = distances.take(near).astype(np.min_scalar_type(max_distance))
        order = distances.argsort(kind="stable")
        return cls(ids.take(near.take(order)), distances.take(order))

    def __len__(self) -> int:
        return len(self.word_ids)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.word_ids.tolist(), self.distances.tolist())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Matches(self.word_ids[index].copy(), self.distances[index].copy())
        return int(self.word_ids[index]), int(self.distances[index])

    def __eq__(self, other) -> bool:
        if isinstance(other, Matches):
            return (np.array_equal(self.word_ids, other.word_ids)
                    and np.array_equal(self.distances, other.distances))
        try:
            pairs = list(other)
        except TypeError:  # not iterable
            return NotImplemented
        return list(self) == pairs

    def __repr__(self) -> str:
        return f"Matches(word_ids={self.word_ids!r}, distances={self.distances!r})"


def split_word(word: str) -> tuple[str, str]:
    """Split at the build's cut, ``split_positions(len(word), 0)``, into
    (first ceil(len/2) characters, remainder). The halves differ in length
    by at most one, longer half first."""
    if len(word) < 2:
        raise ValueError("cannot split a word shorter than 2 characters")
    cut, = split_positions(len(word), 0)
    return word[:cut], word[cut:]


def split_positions(length: int, max_distance: int) -> list[int]:
    """Query split positions to probe: all cut points within
    ceil(length/2) +/- ceil(max_distance/2), clamped to 0..length. A cut
    at either end probes an empty part. At d = 0 the window is the one
    cut ceil(length/2) where the build splits a word: this function is the
    only place that computes it.

    Why this window loses no match. Let a word w of length n be split at
    c = ceil(n/2) and let a query q be within e <= d edits of w. An optimal
    alignment of w and q maps the cut c to some cut t of q, 0 <= t <=
    len(q), with ed(w[:c], q[:t]) = e1, ed(w[c:], q[t:]) = e2 and
    e1 + e2 <= e. The halves change length by a = t - c and
    b = (len(q) - t) - (n - c), with |a| <= e1 and |b| <= e2. Rounding each
    ceil moves it by at most 1/2, so t - ceil(len(q)/2) lies within
    (a - b)/2 +/- 1/2; it is an integer of size at most (d + 1)/2, hence at
    most ceil(d/2), and t is in the window. Since e1 + e2 <= d, one half is
    within floor(d/2) edits at that probe.
    """
    center = (length + 1) // 2
    spread = (max_distance + 1) // 2
    return list(range(max(0, center - spread), min(length, center + spread) + 1))


class FastSSIndex:
    """Immutable residual-key index bound to the dictionary it was built
    from. Build once, then query from any number of threads. ``build`` and
    ``from_bytes``, which builds too, are the only ways to make one.

    The posting table is three read-only views (``_read_only``) of
    ``uint32`` arrays: ``_keys``, the sorted distinct keys; ``_offsets``,
    one more than the keys; and ``_ids``, where
    ``_ids[_offsets[i]:_offsets[i + 1]]`` are the ascending ids of the
    words that have key ``_keys[i]``.
    """

    __slots__ = ("_dictionary", "_params", "_keys", "_offsets", "_ids", "_longest")

    @classmethod
    def build(cls, dictionary: Dictionary, params: IndexParams) -> "FastSSIndex":
        """Index every word's residual keys; words longer than the split
        threshold contribute the keys of their two halves instead.

        ``residual_key_pairs`` gives each word's distinct keys with its id,
        sorted by key, then id; the posting table is read off them. Raises
        ValueError, before allocating, for words past its plan or state limits."""
        keys, ids = residual_key_pairs(dictionary.codes, dictionary.starts, params.word_parts)
        offsets = np.flatnonzero(np.append(_run_starts(keys), True)).astype(np.uint32)
        index = cls.__new__(cls)
        index._dictionary, index._params = dictionary, params
        index._keys, index._offsets, index._ids = (
            _read_only(keys[offsets[:-1]]), _read_only(offsets), _read_only(ids.copy()))
        index._longest = int(np.diff(dictionary.starts).max(initial=1)) - 1
        return index

    @property
    def dictionary(self) -> Dictionary:
        return self._dictionary

    @property
    def params(self) -> IndexParams:
        return self._params

    @property
    def stats(self) -> IndexStats:
        return IndexStats(len(self._ids), len(self._keys))

    def candidates(self, query: str) -> np.ndarray:
        """Ids of the words sharing at least one residual key with the
        query, each once, as an ascending uint32 array.

        Guaranteed to contain every word within ``max_distance`` of the
        query; hash collisions may add extras, which verification removes.
        A query whose plan would take more than 2**28 bytes probes nothing:
        its candidates are every word within d characters of its length.
        Raises TypeError for a query that is not a ``str``, and
        UnicodeEncodeError for one with a lone surrogate.
        """
        chars = _code_points(query)
        # No word matches a query more than d characters longer than the
        # longest word, so such a query costs nothing to enumerate.
        d = self._params.max_distance
        if len(query) > self._longest + d or not len(self._keys):
            return np.empty(0, dtype=np.uint32)

        # One product keys every state of every part. A residual that
        # several states or parts share is probed more than once, and its
        # ids are then gathered twice; the dedupe below drops them.
        parts = tuple(self._params.query_parts(len(query)))
        try:
            weights, offsets = _residual_plan(len(query), parts)
        except _PlanTooLarge:
            # The words of a length within d of the query's hold every match.
            lengths = np.diff(self._dictionary.starts) - 1
            return np.flatnonzero(abs(lengths - len(query)) <= d).astype(np.uint32)
        probes = weights @ chars + offsets
        probes.sort()  # sorted probes walk the keys in order
        rows = self._keys.searchsorted(probes)
        rows = rows[self._keys.take(rows, mode="clip") == probes]
        ids = np.sort(_runs(self._ids, self._offsets.take(rows), self._offsets.take(rows + 1))[0])
        return ids[_run_starts(ids)]

    def search(self, query: str) -> Matches:
        """All dictionary words within ``max_distance`` of the query, as a
        ``Matches`` of their ids and distances sorted by (distance, word
        id). Exactly the naive-scan result set: it compares equal to the
        scan's list of ``Match``. Raises TypeError for a query that is not
        a ``str``."""
        return self._verify(query, self.candidates(query))

    def _verify(self, query: str, ids: np.ndarray) -> Matches:
        """The words among the ascending candidate ``ids`` (an array)
        within ``max_distance`` of the query, as a ``Matches`` sorted by
        (distance, word id), built from fresh arrays.

        The candidates are verified in one kernel call over their lanes of
        the dictionary's code points: each word and its line break. An
        empty ``ids`` runs the same calls and gives an empty answer."""
        at, starts = ids.astype(np.intp), self._dictionary.starts
        codes, lanes = _runs(self._dictionary.codes, starts.take(at), starts.take(at + 1))
        return Matches._within(at, lane_distances(query, codes, lanes),
                               self._params.max_distance)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FastSSIndex)
                and self._dictionary == other._dictionary
                and self._params == other._params
                and np.array_equal(self._keys, other._keys)
                and np.array_equal(self._offsets, other._offsets)
                and np.array_equal(self._ids, other._ids))

    def __repr__(self) -> str:
        return (f"FastSSIndex(d={self._params.max_distance}, "
                f"m={self._params.split_threshold}, "
                f"words={len(self._dictionary)}, "
                f"pairs={len(self._ids)})")

    # -- on-disk format ----------------------------------------------------
    #
    # Little-endian. A 19-byte header: magic "FSSI" | version u16 | d u8 |
    # m u32 (0xFFFFFFFF = never split) | words byte length W u64. Then the
    # words, UTF-8, joined by "\n" (W bytes). Nothing else: a load rebuilds
    # the posting table from the words and (d, m).

    def to_bytes(self) -> bytes:
        d, m = self._params.max_distance, self._params.split_threshold
        words = _decode(self._dictionary.codes[:-1]).encode("utf-8")
        m = UNBOUNDED_SENTINEL if m is None else m  # IndexParams keeps d and m in range
        return _HEADER.pack(_MAGIC, _VERSION, d, m, len(words)) + words

    @classmethod
    def from_bytes(cls, data) -> "FastSSIndex":
        """The index that ``to_bytes`` wrote to ``data``, any C-contiguous
        bytes-like object, built again from its words. Raises
        ``IndexFormatError``, naming a byte, for a bad magic or version, a length other than the
        header's, words that are not UTF-8 or not a valid ``Dictionary``,
        or parameters that are invalid or whose build the words refuse."""
        view = memoryview(data).cast("B")
        if view[:4] != _MAGIC:
            raise IndexFormatError(f"bad magic {bytes(view[:4])!r} at byte 0")
        version = int.from_bytes(view[4:6], "little")
        if len(view) >= 6 and version != _VERSION:
            raise IndexFormatError(f"unsupported format version {version} at byte 4")
        if len(view) < _HEADER.size:
            raise IndexFormatError(f"truncated header: the data ends at byte {len(view)}")
        _, _, d, m, words_len = _HEADER.unpack_from(view)
        end = _HEADER.size + words_len
        if end != len(view):
            raise IndexFormatError(
                f"{'truncated' if end > len(view) else 'trailing bytes'}: the data has "
                f"{len(view)} bytes, the words size at byte 11 gives {end}")
        try:
            text = str(view[_HEADER.size:], "utf-8")
        except UnicodeDecodeError as exc:
            raise IndexFormatError(
                f"words not valid UTF-8 at byte {_HEADER.size + exc.start}") from exc
        try:
            dictionary = Dictionary(text.split("\n") if text else [])
        except ValueError as exc:
            raise IndexFormatError(
                f"invalid dictionary in the words at byte {_HEADER.size}: {exc}") from exc
        try:
            return cls.build(dictionary, IndexParams(d, None if m == UNBOUNDED_SENTINEL else m))
        except ValueError as exc:  # of the header's values, IndexParams refuses only m = 0
            raise IndexFormatError(f"invalid parameters in header at byte "
                                   f"{7 if m == 0 else 6}: {exc}") from exc


def _runs(values: np.ndarray, starts: np.ndarray, stops: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """The runs ``values[starts[i]:stops[i]]`` back to back, gathered with
    one ``take`` of an intp index, which numpy does without a cast, and
    where each run begins in them. The runs may come in any order; the
    arithmetic is signed, so unsigned bounds do not wrap."""
    lengths = np.subtract(stops, starts, dtype=np.intp)
    begins = np.add.accumulate(lengths) - lengths
    # The j-th value gathered is values[j + shift], where shift is its run's
    # start minus the lengths of the runs before it.
    index = np.repeat(starts - begins, lengths)
    index += np.arange(len(index))
    return values.take(index), begins


class IndexFormatError(ValueError):
    """Raised when serialized index bytes cannot be parsed."""
