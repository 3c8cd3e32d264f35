"""Shared test helpers: random words and edits, and a stub for the plan maker."""

import random

import fastss.neighborhood

LOWERCASE = "abcdefghijklmnopqrstuvwxyz"


def random_word(rng: random.Random, min_len=1, max_len=10, alphabet=LOWERCASE) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(min_len, max_len)))


def perturb_word(rng: random.Random, word: str, edits: int, alphabet=LOWERCASE) -> str:
    """Apply ``edits`` random single-character edits (insert/delete/substitute)."""
    for _ in range(edits):
        ops = "ids" if word else "i"
        op = rng.choice(ops)
        if op == "i":
            p = rng.randint(0, len(word))
            word = word[:p] + rng.choice(alphabet) + word[p:]
        elif op == "d":
            p = rng.randrange(len(word))
            word = word[:p] + word[p + 1:]
        else:
            p = rng.randrange(len(word))
            word = word[:p] + rng.choice(alphabet) + word[p + 1:]
    return word


def random_unique_words(rng: random.Random, count: int, min_len=1, max_len=10,
                        alphabet=LOWERCASE) -> list[str]:
    seen = set()
    out = []
    while len(out) < count:
        w = random_word(rng, min_len, max_len, alphabet)
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def refuse_plans(monkeypatch) -> list:
    """Replace the build's plan maker with one that records each length it
    is asked for and raises, so that no test can make a plan of unbounded
    size. Returns the list of lengths."""
    calls = []

    def refuse(length, parts):
        calls.append(length)
        raise AssertionError(f"a residual plan was asked for {length} characters")

    monkeypatch.setattr(fastss.neighborhood, "_residual_plan", refuse)
    return calls
