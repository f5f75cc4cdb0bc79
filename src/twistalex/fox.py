"""Fox free differential calculus, specialized through rho tensor t^phi.

Wada's numerator and the Alexander matrix are the Fox Jacobian (dr_i/dg_j)
sent through rho tensor t^phi (Fox 1953; Wada 1994).  It is read off each
relator in one left-to-right pass, never as a group-ring element: with P the
prefix read so far and s = phi(P),

    a letter g       adds   rho(P) t^s                    to block column g
    a letter g^-1    adds  -rho(P g^-1) t^(s - phi(g))    to block column g

(d(Pg)/dg = dP/dg + P and d(Pg^-1)/dg = dP/dg - Pg^-1).  A syllable g^e is
walked from rho(P) (e > 0) or rho(P g^e) (e < 0), both relator prefixes that
the relator check has already put in the rep's word cache, by right
multiplication with rho(g).  The Alexander matrix over Z[t^±1] is the case of
the 1 x 1 trivial image over ZZ.
"""
from __future__ import annotations

from .domains import ZZ
from .laurent import LaurentPoly
from .matrix import Monomial, gen_mul
from .words import Word


class _Trivial:
    """The 1 x 1 trivial image over ZZ: every word maps to (1)."""

    dim, dom = 1, ZZ
    _one = Monomial.identity(ZZ, 1)

    def image_of_word(self, w: Word):
        return self._one

    def image_of_gen(self, g: int, e: int):
        return self._one


def specialize_element(r: Word, rep, pres) -> list[list[LaurentPoly]]:
    """One relator's Fox row through rho tensor t^phi: an n x (generators * n)
    LaurentPoly block row, block column j holding (dr/dg_j)^(rho tensor t^phi)."""
    n, dom = rep.dim, rep.dom
    acc = [[{} for _ in range(pres.generator_count * n)] for _ in range(n)]

    def put(cell, x, v):
        w = dom.add(cell[x], v) if x in cell else v
        if dom.is_zero(w):
            del cell[x]
        else:
            cell[x] = w

    s = 0
    for i, (g, e) in enumerate(r):
        f, off = pres.phi[g], g * n
        img = rep.image_of_word(r[:i] if e > 0 else r[:i + 1])
        for l in range(abs(e)):
            if l:
                img = gen_mul(dom, img, rep.image_of_gen(g, 1))
            x = s + (min(e, 0) + l) * f
            entries = (zip(img.perm, range(n), img.scales) if isinstance(img, Monomial)
                       else ((p, j, v) for p, row in enumerate(img)
                             for j, v in enumerate(row) if not dom.is_zero(v)))
            for p, j, v in entries:
                put(acc[p][off + j], x, v if e > 0 else dom.neg(v))
        s += e * f
    return [[LaurentPoly(dom, cell) for cell in row] for row in acc]


def specialize_matrix(rep, pres) -> list[list[LaurentPoly]]:
    """The Fox matrix through rho tensor t^phi, the relators' block rows
    stacked: (relators * n) x (generators * n) LaurentPolys."""
    return [row for r in pres.relators for row in specialize_element(r, rep, pres)]


def alexander_fox_matrix(pres) -> tuple[tuple[LaurentPoly, ...], ...]:
    """The Alexander matrix (dr_i/dg_j)^phi over Z[t^±1], one row per relator."""
    return tuple(tuple(row) for row in specialize_matrix(_Trivial(), pres))
