"""Fox free differential calculus, specialized through rho tensor t^phi.

Wada's numerator and the Alexander matrix are the Fox Jacobian (dr_i/dg_j)
sent through rho tensor t^phi (Fox 1953; Wada 1994).  It is read off each
relator in one left-to-right pass (`_terms`), never as a group-ring element:
with P the prefix read so far and s = phi(P),

    a letter g       adds   rho(P) t^s                    to block column g
    a letter g^-1    adds  -rho(P g^-1) t^(s - phi(g))    to block column g

(d(Pg)/dg = dP/dg + P and d(Pg^-1)/dg = dP/dg - Pg^-1).  The terms are
words, not images: the l-th term of a syllable g^e is the word P g^l, with P
the prefix before it (e > 0) or through it (e < 0), and its image is looked
up with `rep.image_of_word`, whose cache the relator check has already filled
with every relator prefix, and its entries are read by `matrix.entries`,
whatever the image's format.  The Alexander matrix over Z[t^±1] is the case
of the 1 x 1 trivial image over ZZ.

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
Plan and evaluation.  The pivot order, each relator's freely reduced words
Q^-1 P, their t-exponents and signs, the unit's t-shift and generator powers
depend on the presentation alone: `walk_plan` builds them once per (pres,
column) and keeps them in the presentation's memo (`KnotPresentation.cached`),
which lives as long as the presentation does.  `reduced_fox_matrix` is the
evaluation: it looks each plan word up in the rep and combines the block
columns.  Each D(g) is sparse, one list of nonzero (exponent, column, value)
entries per block row (a seed's is one entry per row), and `_combine` sends
each image entry times each entry of the D(g) row it meets to its output
cell, so no zero is multiplied; each nonzero cell is one dom.dot, so Q(zeta_m)
normalizes once per cell.  The reduced matrix's rows are returned in that
form, which `polydet.det_sparse` reads as they are: no LaurentPoly is built
per cell.  It builds the reduced matrix afresh on every call and keeps
nothing.

Under the trivial image the reduced matrix presents the Alexander module
itself (its pivots are units ±t^a).  `alexander_reduced_matrix` gives it as
LaurentPolys, the one walk that builds them; `metabelian.reduced_module`
keeps it in the presentation's memo, and Delta and every branched-cover
degree read it there; the full matrix (`metabelian.alexander_module`)
is built only for the SNF transform that characters are read through and for
the epimorphism kernels.
"""
from __future__ import annotations

from typing import NamedTuple

from .domains import ZZ
from .laurent import LaurentPoly
from .matrix import Monomial, entries, perm_sign
from .words import Word, exponent_sum, reduce_syllables


class _Trivial:
    """The 1 x 1 trivial image over ZZ: every word maps to (1)."""

    dim, dom = 1, ZZ
    _one = Monomial.identity(ZZ, 1)

    def image_of_word(self, w: Word):
        return self._one


def _terms(r: Word, phi, left: Word = ()):
    """One relator's Fox terms, left to right: (syllable index, generator,
    word, t-exponent, sign), each adding sign * rho(word) t^exponent to the
    generator's block column.  The l-th term of a syllable g^e is the word
    P g^l with P the prefix before it (e > 0) or through it (e < 0); a left
    word L is put in front, and each word is freely reduced."""
    s = 0
    for i, (g, e) in enumerate(r):
        f = phi[g]
        start = left + (r[:i] if e > 0 else r[:i + 1])
        for l in range(abs(e)):
            yield (i, g, reduce_syllables(start + ((g, l),)), s + (min(e, 0) + l) * f,
                   1 if e > 0 else -1)
        s += e * f


def specialize_element(r: Word, rep, pres) -> list[list[LaurentPoly]]:
    """One relator's Fox row through rho tensor t^phi: an n x (generators * n)
    LaurentPoly block row, block column j holding (dr/dg_j)^(rho tensor t^phi)."""
    n, dom = rep.dim, rep.dom
    acc = [[{} for _ in range(pres.generator_count * n)] for _ in range(n)]
    for _, g, w, x, sign in _terms(r, pres.phi):
        for p, j, v in entries(dom, rep.image_of_word(w), n):
            cell = acc[p][g * n + j]
            v = v if sign > 0 else dom.neg(v)
            cell[x] = dom.add(cell[x], v) if x in cell else v
    return [[LaurentPoly.from_terms(dom, cell) for cell in row] for row in acc]


def specialize_matrix(rep, pres) -> list[list[LaurentPoly]]:
    """The Fox matrix through rho tensor t^phi, the relators' block rows
    stacked: (relators * n) x (generators * n) LaurentPolys."""
    return [row for r in pres.relators for row in specialize_element(r, rep, pres)]


def alexander_fox_matrix(pres) -> tuple[tuple[LaurentPoly, ...], ...]:
    """The Alexander matrix (dr_i/dg_j)^phi over Z[t^±1], one row per relator."""
    return tuple(tuple(row) for row in specialize_matrix(_Trivial(), pres))


# --------------------------------------------------------- substitution walk

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


class WalkPlan(NamedTuple):
    """The substitution walk of one (presentation, column), from the relator
    words alone.  A term (generator, word, x, sign) stands for
    sign * rho(word) t^x D(generator)."""

    seeds: tuple     # the deleted column first, then the other seeds
    pivots: tuple    # (generator, terms) per pivot, in walk order
    rows: tuple      # terms per relator that defines no generator
    sign: int        # sgn of the block orders times prod eps_i
    shift: int       # sum phi(Q_i)
    powers: tuple    # exponent of each generator in prod Q_i


def _walk_plan(pres, column: int) -> WalkPlan:
    pivots, seeds, rest, sign = substitution_order(pres, column)
    shift, powers, defined = 0, [0] * pres.generator_count, []
    for ri, i, p in pivots:
        r = pres.relators[ri]
        eps = r[i][1]
        q = r[:i] if eps > 0 else r[:i + 1]
        fq = exponent_sum(q, pres.phi)
        # (eps rho(Q) t^phi(Q))^-1 = eps rho(Q^-1) t^-phi(Q): each term is read
        # off the word Q^-1 P, the stretch of r between the pivot and the term
        qinv = tuple((g, -e) for g, e in reversed(q))
        defined.append((p, tuple((g, w, x - fq, -eps * sg)
                                 for j, g, w, x, sg in _terms(r, pres.phi, qinv) if j != i)))
        sign *= eps
        shift += fq
        for g, e in q:
            powers[g] += e
    rows = tuple(tuple(t[1:] for t in _terms(pres.relators[ri], pres.phi)) for ri in rest)
    return WalkPlan(seeds, tuple(defined), rows, sign, shift, tuple(powers))


def walk_plan(pres, column: int) -> WalkPlan:
    """The walk plan of (pres, column), built once and kept in pres's memo."""
    return pres.cached(("walk plan", column), lambda p: _walk_plan(p, column))


def _combine(rep, terms, d):
    """sum sign * rho(word) t^x D(g) over the terms (g, word, x, sign), as
    one list of nonzero (exponent, column, value) entries per block row.  An
    image entry (a, c, v) sends sign * v times each entry (y, column, u) of
    D(g)'s row c to cell (x + y, column) of row a; each cell is then one
    dom.dot of what it gathered, and a cell whose dot is zero is dropped."""
    n, dom = rep.dim, rep.dom
    gathered = [{} for _ in range(n)]
    for g, w, x, sign in terms:
        dg = d[g]
        if not dg:
            continue
        for a, c, v in entries(dom, rep.image_of_word(w), n):
            coef = v if sign > 0 else dom.neg(v)
            cells = gathered[a]
            for y, col, u in dg[c]:
                cell = cells.get((x + y, col))
                if cell is None:
                    cells[x + y, col] = ([coef], [u])
                else:
                    cell[0].append(coef)
                    cell[1].append(u)
    out = []
    for cells in gathered:
        row = []
        for (y, col), (coefs, vals) in cells.items():
            v = dom.dot(coefs, vals)
            if not dom.is_zero(v):
                row.append((y, col, v))
        out.append(row)
    return out


def reduced_fox_matrix(rep, pres, column: int, dets):
    """(rows, unit): the substitution walker's reduced matrix, square of side
    (seeds - 1) * n, each row the list of its nonzero (exponent, column,
    value) entries as `polydet.det_sparse` reads it, and the monomial unit
    with det(Fox matrix without block column `column`) = unit * det(rows)
    exactly.  dets are the determinants of the generator images, indexed by
    generator.  The walk's words come from the presentation's plan
    (`walk_plan`); only their images are looked up here."""
    n, dom = rep.dim, rep.dom
    plan = walk_plan(pres, column)
    one = dom.one()
    d = {column: ()}
    for k, s in enumerate(plan.seeds[1:]):
        d[s] = [[(0, k * n + a, one)] for a in range(n)]
    for p, terms in plan.pivots:
        d[p] = _combine(rep, terms, d)
    rows = [row for terms in plan.rows for row in _combine(rep, terms, d)]
    c = one if plan.sign > 0 or n % 2 == 0 else dom.neg(one)
    for g, e in enumerate(plan.powers):
        if e:
            c = dom.mul(c, dom.pow(dets[g], e))
    return rows, LaurentPoly(dom, [c], n * plan.shift)


def alexander_reduced_matrix(pres, column: int):
    """reduced_fox_matrix under the 1 x 1 trivial image over ZZ, its cells as
    LaurentPolys: the unit is ±t^k and the determinant is the Alexander
    matrix's minor up to it."""
    rows, unit = reduced_fox_matrix(_Trivial(), pres, column, (1,) * pres.generator_count)
    return [[LaurentPoly.from_terms(ZZ, {y: v for y, c, v in row if c == col})
             for col in range(len(rows))] for row in rows], unit
