"""Freely reduced words in a free group.

A word is a tuple of syllables (generator index, nonzero exponent) with
adjacent syllables on distinct generators.  Tuples keep words hashable so
their prefixes can key a representation's image cache.
"""
from __future__ import annotations

Syllable = tuple[int, int]
Word = tuple[Syllable, ...]


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


def exponent_sum(u: Word, weights) -> int:
    """Signed exponent sum with per-generator integer weights."""
    return sum(e * weights[g] for g, e in u)


def max_generator(u: Word) -> int:
    return max((g for g, _ in u), default=-1)
