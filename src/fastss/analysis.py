"""Average-case predictions for the unsplit index over uniform random
dictionaries.

For n random words of length L over an alphabet of size s, the expected
number of residual collisions between a random query and the dictionary
is n * C(L, d)^2 * s^(d - L). It overestimates the observed candidate
count, because distinct deletion sets can produce the same residual and
each dictionary word is only verified once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf

from .neighborhood import _int_in

__all__ = ["CollisionModel", "expected_candidates", "markov_bound"]


@dataclass(frozen=True)
class CollisionModel:
    """Uniform random dictionary: ``dictionary_size`` words of exactly
    ``word_length`` characters over ``alphabet_size`` letters, queried at
    ``max_distance``. Each field is an int, not a bool: d in
    0..word_length, at least one letter, and otherwise at least 0
    (``_int_in`` raises TypeError or ValueError naming the field)."""

    dictionary_size: int
    word_length: int
    max_distance: int
    alphabet_size: int

    def __post_init__(self):
        _int_in(self.dictionary_size, "dictionary_size", 0)
        _int_in(self.word_length, "word_length", 0)
        _int_in(self.max_distance, "max_distance", 0, self.word_length)
        _int_in(self.alphabet_size, "alphabet_size", 1)


def _collision_rate(model: CollisionModel) -> Fraction:
    # C(L, d)^2 / s^(L - d), kept exact until the final conversion
    pairs = comb(model.word_length, model.max_distance) ** 2
    return Fraction(pairs,
                    model.alphabet_size ** (model.word_length - model.max_distance))


def expected_candidates(model: CollisionModel) -> float:
    """Expected residual collisions per query against the whole
    dictionary. Exact big-integer evaluation, converted to float last."""
    return float(model.dictionary_size * _collision_rate(model))


def markov_bound(model: CollisionModel, speedup: float) -> float:
    """Upper bound on the probability that a query collides with at least
    n / c residuals, n = dictionary_size and c = ``speedup``, i.e. that
    the filter speeds up a scan by less than c. By Markov's inequality it
    is E * c / n, the expectation times c / n: the collision rate per
    word times c, which grows with c and exceeds 1 (says nothing) once
    n / c falls to E. Raises ValueError for a ``speedup`` that is not a
    positive finite number."""
    if not 0 < speedup < inf:
        raise ValueError(f"speedup must be a positive finite number, not {speedup}")
    return float(_collision_rate(model) * Fraction(speedup))
