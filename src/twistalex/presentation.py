"""Braid words and deficiency-one knot group presentations.

Braid closures are turned into Wirtinger presentations: one generator per arc
of the closed diagram, one conjugation relator per crossing, the redundant
last relator removed.  Arc naming sweeps the braid top to bottom so that, for
a 4-strand braid, arcs come out a, b, c, ... in the order the strands and
undercrossings appear.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

from . import words
from .domains import TwistalexError
from .words import Word


class PresentationError(TwistalexError):
    pass


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...]  # signed generator indices, |i| in 1..strands-1

    def __post_init__(self):
        if self.strands < 1:
            raise PresentationError("strand count must be positive")
        for x in self.letters:
            if x == 0 or abs(x) >= self.strands:
                raise PresentationError(f"braid letter {x} out of range for {self.strands} strands")

    def permutation(self) -> tuple[int, ...]:
        """Position -> position map of the underlying permutation (0-based)."""
        perm = list(range(self.strands))
        for x in self.letters:
            i = abs(x) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return tuple(perm)

    def closure_is_knot(self) -> bool:
        perm = self.permutation()
        seen, j, n = 1, perm[0], len(perm)
        while j != 0:
            j = perm[j]
            seen += 1
        return seen == n


_BRAID_TOKEN = re.compile(r"^s(\d+)(\^-1)?$")


def parse_braid(text: str) -> BraidWord:
    """Parse whitespace-separated signed indices or s<i> / s<i>^-1 tokens.

    The strand count is 1 + the largest index; a word with no letters is
    refused.
    """
    if not text.split():
        raise PresentationError("empty braid word")
    letters = []
    for tok in text.split():
        m = _BRAID_TOKEN.match(tok)
        if m:
            idx = int(m.group(1))
            letters.append(-idx if m.group(2) else idx)
            continue
        try:
            letters.append(int(tok))
        except ValueError:
            raise PresentationError(f"malformed braid token {tok!r}")
    if any(x == 0 for x in letters):
        raise PresentationError("braid generator index 0 is not allowed")
    return BraidWord(1 + max(map(abs, letters)), tuple(letters))


@dataclass(frozen=True)
class KnotPresentation:
    """Deficiency-one presentation with the meridional abelianization phi,
    which must be onto Z (values with gcd 1)."""

    generator_names: tuple[str, ...]
    relators: tuple[Word, ...]
    phi: tuple[int, ...] = field(default=())

    def __post_init__(self):
        n = len(self.generator_names)
        if len(set(self.generator_names)) != n:
            raise PresentationError("duplicate generator names")
        if not self.phi:
            object.__setattr__(self, "phi", (1,) * n)
        if len(self.phi) != n:
            raise PresentationError("phi length mismatch")
        if len(self.relators) != n - 1:
            raise PresentationError(
                f"deficiency-one violation: {n} generators need {n - 1} relators, "
                f"got {len(self.relators)}"
            )
        for r in self.relators:
            if words.max_generator(r) >= n:
                raise PresentationError("relator references unknown generator")
            if words.exponent_sum(r, self.phi) != 0:
                raise PresentationError(
                    f"relator {format_word(r, self.generator_names)} is not phi-balanced"
                )
        g = gcd(*self.phi)
        if g != 1:
            raise PresentationError(f"phi is not onto Z: its values have gcd {g}")

    @property
    def generator_count(self) -> int:
        return len(self.generator_names)

    @cached_property
    def _memo(self) -> dict:
        return {}

    def cached(self, key, build):
        """build(self), computed on the first call with this key and kept as
        long as the presentation is: the presentation is frozen, so results
        that depend on it alone cannot go stale.  The walk plans, Delta, the
        full and reduced Alexander modules and the meridian copy are kept
        here, not in a module-level cache that would keep every presentation
        alive."""
        memo = self._memo
        if key not in memo:
            memo[key] = build(self)
        return memo[key]

    def is_wirtinger_like(self) -> bool:
        return all(v == 1 for v in self.phi)


def _default_names(n: int) -> tuple[str, ...]:
    # a..z, then g26, g27, ...
    base = "abcdefghijklmnopqrstuvwxyz"
    return tuple(base[i] if i < 26 else f"g{i}" for i in range(n))


def braid_closure_presentation(b: BraidWord) -> KnotPresentation:
    """Wirtinger presentation of the closure of b.

    Positive sigma_i takes the strand at position i over the strand at
    position i+1; at a crossing of sign eps the new under-arc w satisfies
    w = o^eps u o^-eps, recorded as the relator u^-1 o^-eps w o^eps.
    """
    if not b.closure_is_knot():
        raise PresentationError("braid closure has more than one component")
    n = b.strands
    # arc ids: 0..n-1 are the top arcs; each crossing creates a fresh id
    current = list(range(n))
    next_id = n
    crossings = []  # (under_in, over, out, sign)
    for x in b.letters:
        i = abs(x) - 1
        sign = 1 if x > 0 else -1
        if sign > 0:
            over_pos, under_pos = i, i + 1
        else:
            over_pos, under_pos = i + 1, i
        over, under = current[over_pos], current[under_pos]
        out = next_id
        next_id += 1
        crossings.append((under, over, out, sign))
        # strands swap positions; the under strand continues as the new arc
        if sign > 0:
            current[i], current[i + 1] = out, over
        else:
            current[i], current[i + 1] = over, out
    # closure: bottom arc at position p is the top arc p
    parent = list(range(next_id))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p in range(n):
        ra, rb = find(current[p]), find(p)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    # name equivalence classes in first-appearance order
    order = []
    seen = {}
    for a in range(next_id):
        r = find(a)
        if r not in seen:
            seen[r] = len(order)
            order.append(r)
    gen_of = {a: seen[find(a)] for a in range(next_id)}
    gen_count = len(order)
    names = _default_names(gen_count)
    relators = []
    for under, over, out, sign in crossings:
        u, o, w = gen_of[under], gen_of[over], gen_of[out]
        rel = words.word((u, -1), (o, -sign), (w, 1), (o, sign))
        relators.append(rel)
    if relators:
        relators.pop()  # the last Wirtinger relator is redundant
    if gen_count != len(relators) + 1:
        raise PresentationError("arc/crossing bookkeeping failed to give deficiency one")
    return KnotPresentation(names, tuple(relators))


# ---------------------------------------------------------------------- text

def format_word(w: Word, names) -> str:
    if not w:
        return "1"
    parts = []
    for g, e in w:
        if e == 1:
            parts.append(names[g])
        else:
            parts.append(f"{names[g]}^{e}")
    return " ".join(parts)


def _parse_word_tokens(tokens, name_index) -> Word:
    syls = []
    for tok in tokens:
        if "^" in tok:
            name, _, etext = tok.partition("^")
            try:
                e = int(etext)
            except ValueError:
                raise PresentationError(f"malformed exponent in token {tok!r}")
        else:
            name, e = tok, 1
        if name in name_index:
            syls.append((name_index[name], e))
        elif name.lower() in name_index and name.isupper() and len(name) == 1:
            syls.append((name_index[name.lower()], -e))
        elif len(name) > 1 and all(
            c in name_index or (c.lower() in name_index and c.isupper()) for c in name
        ):
            # compact letter string like "BAea"; an exponent on a whole
            # compact string would be ambiguous, so it is rejected
            if "^" in tok:
                raise PresentationError(
                    f"exponent on compact letter string {tok!r}; "
                    "separate the letters with spaces")
            for c in name:
                if c in name_index:
                    syls.append((name_index[c], 1))
                else:
                    syls.append((name_index[c.lower()], -1))
        else:
            raise PresentationError(f"unknown generator in token {tok!r}")
    return words.reduce_syllables(syls)


def parse_presentation(text: str) -> KnotPresentation:
    """Parse the presentation text format.

    Sections are `gens:`, `rels:` (one relator per line or comma/semicolon
    separated), and optional `phi:` with name=value pairs.  Inverses are
    written either as uppercase single letters or with ^-1.
    """
    gens: list[str] = []
    rel_chunks: list[str] = []
    phi_text: list[str] = []
    section = None
    pieces = []
    for line in text.splitlines():
        pieces.extend(p for p in line.split(";"))
    for piece in pieces:
        s = piece.strip()
        if not s:
            continue
        low = s.lower()
        if low.startswith("gens:"):
            section = "gens"
            s = s[5:].strip()
        elif low.startswith("rels:"):
            section = "rels"
            s = s[5:].strip()
        elif low.startswith("phi:"):
            section = "phi"
            s = s[4:].strip()
        if not s:
            continue
        if section == "gens":
            gens.extend(s.split())
        elif section == "rels":
            rel_chunks.extend(c.strip() for c in s.split(",") if c.strip())
        elif section == "phi":
            phi_text.extend(s.split())
        else:
            raise PresentationError(f"text before any section header: {s!r}")
    if not gens:
        raise PresentationError("no generators declared")
    name_index = {g: i for i, g in enumerate(gens)}
    relators = tuple(_parse_word_tokens(chunk.split(), name_index) for chunk in rel_chunks)
    phi = [1] * len(gens)
    for item in phi_text:
        name, _, val = item.partition("=")
        if name not in name_index:
            raise PresentationError(f"phi for unknown generator {name!r}")
        try:
            phi[name_index[name]] = int(val)
        except ValueError:
            raise PresentationError(
                f"phi for generator {name!r} needs an integer value: {item!r}") from None
    return KnotPresentation(tuple(gens), relators, tuple(phi))


def serialize_presentation(p: KnotPresentation) -> str:
    lines = ["gens: " + " ".join(p.generator_names)]
    for r in p.relators:
        lines.append("rels: " + format_word(r, p.generator_names))
    if any(v != 1 for v in p.phi):
        lines.append("phi: " + " ".join(f"{g}={v}" for g, v in zip(p.generator_names, p.phi)))
    return "\n".join(lines) + "\n"
