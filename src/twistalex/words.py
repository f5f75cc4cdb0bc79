"""Freely reduced words in a free group.

A word is a tuple of syllables (generator index, nonzero exponent) with
adjacent syllables on distinct generators.  Tuples keep words hashable so they
can key group-ring dictionaries.
"""
from __future__ import annotations

Syllable = tuple[int, int]
Word = tuple[Syllable, ...]

EMPTY: Word = ()


def reduce_syllables(syls) -> Word:
    out: list[Syllable] = []
    for g, e in syls:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            g0, e0 = out[-1]
            if e0 + e == 0:
                out.pop()
            else:
                out[-1] = (g0, e0 + e)
        else:
            out.append((g, e))
    return tuple(out)


def word(*syls) -> Word:
    return reduce_syllables(syls)


def mul(u: Word, v: Word) -> Word:
    return reduce_syllables(list(u) + list(v))


def inv(u: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(u))


def letters(u: Word):
    """Expand to single-exponent letters (g, ±1)."""
    out = []
    for g, e in u:
        s = 1 if e > 0 else -1
        out.extend((g, s) for _ in range(abs(e)))
    return out


def exponent_sum(u: Word, weights) -> int:
    """Signed exponent sum with per-generator integer weights."""
    return sum(e * weights[g] for g, e in u)


def max_generator(u: Word) -> int:
    return max((g for g, _ in u), default=-1)
