"""Fox free differential calculus, specialized through rho tensor t^phi.

Wada's numerator and the Alexander matrix are the Fox Jacobian (dr_i/dg_j)
sent through rho tensor t^phi (Fox 1953; Wada 1994).  It is read off each
relator in one left-to-right pass (`_terms`), never as a group-ring element:
with P the prefix read so far and s = phi(P),

    a letter g       adds   rho(P) t^s                    to block column g
    a letter g^-1    adds  -rho(P g^-1) t^(s - phi(g))    to block column g

(d(Pg)/dg = dP/dg + P and d(Pg^-1)/dg = dP/dg - Pg^-1).  A syllable g^e is
walked from rho(P) (e > 0) or rho(P g^e) (e < 0), both relator prefixes that
the relator check has already put in the rep's word cache, by right
multiplication with rho(g).  The Alexander matrix over Z[t^±1] is the case of
the 1 x 1 trivial image over ZZ.

The substitution walker (`reduced_fox_matrix`).  A relator r = A g^eps B in
which g occurs once, with eps = ±1, and every other generator is already
known, defines g = (B A)^-eps.  By the chain rule g's block column becomes a
combination of the seed generators' block columns,

    D(g) = -(eps rho(Q) t^phi(Q))^-1 sum_{letters x of A, B} (dr/dx) D(x),

with Q = A (eps = 1) or A g^-1 (eps = -1) the prefix whose term is r's entry
in column g, and D(seed) its unit block column.  The rows of the relators
that define no generator, each sum_x (dr/dx) D(x), form the reduced matrix:
for a braid closure in crossing order the seeds are the top arcs and it is
the (s - 1) n-square minor of the twisted Burau matrix (Birman 1974,
Thm 3.11 for n = 1).  Reordering the minor's block rows and columns puts the
pivot blocks on a block triangular diagonal, so

    det(Fox minor) = sgn(rows)^n sgn(cols)^n prod_i eps_i^n det rho(Q_i)
                     t^(n phi(Q_i)) * det(reduced matrix)

exactly, not only up to units (Wada 1994 for the Tietze invariance).  A
presentation where no relator qualifies (e.g. a torus-knot presentation
with a^2 b^-3) keeps every relator as a row: the walk is then the plain one.
The module route (`metabelian.alexander_module`) keeps the full matrix.
"""
from __future__ import annotations

from functools import lru_cache

from .domains import ZZ
from .laurent import LaurentPoly
from .matrix import Monomial, gen_mul, perm_sign
from .words import Word, exponent_sum, reduce_syllables


class _Trivial:
    """The 1 x 1 trivial image over ZZ: every word maps to (1)."""

    dim, dom = 1, ZZ
    _one = Monomial.identity(ZZ, 1)

    def image_of_word(self, w: Word):
        return self._one

    def image_of_gen(self, g: int, e: int):
        return self._one


def _terms(r: Word, rep, pres, left: Word = ()):
    """One relator's Fox terms, left to right: (syllable index, generator,
    image, t-exponent, sign), each adding sign * image t^exponent to the
    generator's block column.  A left word L multiplies every image by rho(L):
    each syllable is then walked from the word L P, freely reduced."""
    dom = rep.dom
    s = 0
    for i, (g, e) in enumerate(r):
        f = pres.phi[g]
        start = r[:i] if e > 0 else r[:i + 1]
        img = rep.image_of_word(reduce_syllables(left + start) if left else start)
        for l in range(abs(e)):
            if l:
                img = gen_mul(dom, img, rep.image_of_gen(g, 1))
            yield i, g, img, s + (min(e, 0) + l) * f, 1 if e > 0 else -1
        s += e * f


def _entries(dom, img, n):
    """The (row, column, value) entries of an image: one per column of a
    Monomial, the nonzero ones of a dense matrix."""
    if isinstance(img, Monomial):
        return zip(img.perm, range(n), img.scales)
    return ((p, j, v) for p, row in enumerate(img) for j, v in enumerate(row)
            if not dom.is_zero(v))


def specialize_element(r: Word, rep, pres) -> list[list[LaurentPoly]]:
    """One relator's Fox row through rho tensor t^phi: an n x (generators * n)
    LaurentPoly block row, block column j holding (dr/dg_j)^(rho tensor t^phi)."""
    n, dom = rep.dim, rep.dom
    acc = [[{} for _ in range(pres.generator_count * n)] for _ in range(n)]
    for _, g, img, x, sign in _terms(r, rep, pres):
        for p, j, v in _entries(dom, img, n):
            cell = acc[p][g * n + j]
            v = v if sign > 0 else dom.neg(v)
            w = dom.add(cell[x], v) if x in cell else v
            if dom.is_zero(w):
                del cell[x]
            else:
                cell[x] = w
    return [[LaurentPoly(dom, cell) for cell in row] for row in acc]


def specialize_matrix(rep, pres) -> list[list[LaurentPoly]]:
    """The Fox matrix through rho tensor t^phi, the relators' block rows
    stacked: (relators * n) x (generators * n) LaurentPolys."""
    return [row for r in pres.relators for row in specialize_element(r, rep, pres)]


def alexander_fox_matrix(pres) -> tuple[tuple[LaurentPoly, ...], ...]:
    """The Alexander matrix (dr_i/dg_j)^phi over Z[t^±1], one row per relator."""
    return tuple(tuple(row) for row in specialize_matrix(_Trivial(), pres))


# --------------------------------------------------------- substitution walk

@lru_cache(maxsize=256)
def substitution_order(pres, column: int):
    """(pivots, seeds, rows, sign) of the substitution walk, from the relator
    words alone.

    The deleted column is the first seed.  Repeatedly the first unused relator
    with exactly one unknown generator, occurring once with exponent ±1,
    defines it: a pivot (relator index, syllable index, generator).  When no
    relator qualifies, the first unknown generator becomes a seed.  rows are
    the unused relators; sign is sgn(row block order) * sgn(column block
    order) of [pivot relators, rows] against the relators and [pivots,
    seeds other than column] against the generators other than column.
    """
    k = pres.generator_count
    known = [False] * k
    known[column] = True
    seeds, pivots, used = [column], [], set()
    while len(seeds) + len(pivots) < k:
        for ri, r in enumerate(pres.relators):
            if ri in used:
                continue
            free = {g for g, _ in r if not known[g]}
            if len(free) != 1:
                continue
            (g,) = free
            at = [i for i, (h, _) in enumerate(r) if h == g]
            if len(at) == 1 and abs(r[at[0]][1]) == 1:
                pivots.append((ri, at[0], g))
                used.add(ri)
                known[g] = True
                break
        else:
            g = known.index(False)
            seeds.append(g)
            known[g] = True
    rows = tuple(ri for ri in range(len(pres.relators)) if ri not in used)
    row_order = [ri for ri, _, _ in pivots] + list(rows)
    col_order = [g - (g > column) for g in [p for _, _, p in pivots] + seeds[1:]]
    return tuple(pivots), tuple(seeds), rows, perm_sign(row_order) * perm_sign(col_order)


def _combine(dom, n: int, width: int, terms, d):
    """sum sign * image t^x D(g) over the terms (g, image, x, sign), as
    {exponent: n x width block}; each cell is one dom.dot."""
    gathered = {}
    for g, img, x, sign in terms:
        dg = d[g]
        if not dg:
            continue
        for a, c, v in _entries(dom, img, n):
            coef = v if sign > 0 else dom.neg(v)
            for y, block in dg.items():
                rows = gathered.get(x + y)
                if rows is None:
                    rows = gathered[x + y] = [([], []) for _ in range(n)]
                rows[a][0].append(coef)
                rows[a][1].append(block[c])
    zero = dom.zero()
    out = {}
    for x, rows in gathered.items():
        block = [[dom.dot(coefs, col) for col in zip(*vecs)] if coefs else [zero] * width
                 for coefs, vecs in rows]
        if any(not dom.is_zero(v) for row in block for v in row):
            out[x] = block
    return out


def reduced_fox_matrix(rep, pres, column: int, dets):
    """(rows, unit): the substitution walker's reduced matrix, square of side
    (seeds - 1) * n, and the monomial unit with det(Fox matrix without block
    column `column`) = unit * det(rows) exactly.  dets are the determinants
    of the generator images, indexed by generator."""
    n, dom = rep.dim, rep.dom
    pivots, seeds, rest, sign = substitution_order(pres, column)
    width = (len(seeds) - 1) * n
    zero, one = dom.zero(), dom.one()
    d = {column: {}}
    for k, s in enumerate(seeds[1:]):
        block = [[zero] * width for _ in range(n)]
        for a in range(n):
            block[a][k * n + a] = one
        d[s] = {0: block}
    shift, powers = 0, [0] * pres.generator_count
    for ri, i, p in pivots:
        r = pres.relators[ri]
        eps = r[i][1]
        q = r[:i] if eps > 0 else r[:i + 1]
        fq = exponent_sum(q, pres.phi)
        # (eps rho(Q) t^phi(Q))^-1 = eps rho(Q^-1) t^-phi(Q): each term is read
        # off the word Q^-1 P, the stretch of r between the pivot and the term
        qinv = tuple((g, -e) for g, e in reversed(q))
        d[p] = _combine(dom, n, width, [(g, img, x - fq, -eps * sg) for j, g, img, x, sg
                                        in _terms(r, rep, pres, qinv) if j != i], d)
        sign *= eps
        shift += fq
        for g, e in q:
            powers[g] += e
    rows = []
    for ri in rest:
        blocks = _combine(dom, n, width, [t[1:] for t in _terms(pres.relators[ri], rep, pres)],
                          d)
        rows += [[LaurentPoly(dom, {x: b[a][c] for x, b in blocks.items()})
                  for c in range(width)] for a in range(n)]
    c = one if sign > 0 or n % 2 == 0 else dom.neg(one)
    for g, e in enumerate(powers):
        if e:
            c = dom.mul(c, dom.pow(dets[g], e))
    return rows, LaurentPoly(dom, {n * shift: c})


def alexander_reduced_matrix(pres, column: int):
    """reduced_fox_matrix under the 1 x 1 trivial image over ZZ: the unit is
    ±t^k and the determinant is the Alexander matrix's minor up to it."""
    return reduced_fox_matrix(_Trivial(), pres, column, (1,) * pres.generator_count)
