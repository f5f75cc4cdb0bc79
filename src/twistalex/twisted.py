"""Wada's invariant of a presentation and a representation.

The value is det((rho tensor t^phi)(M_j)) / det((rho tensor t^phi)(1 - g_j))
for a deleted column j with phi_j != 0, as a reduced rational function over
the coefficient field, together with the unit subgroup {± t^k r} describing its
indeterminacy (r ranges over the subgroup generated by determinants of the
image).  One normal form quotients that unit out (canonical_pair): the
numerator shifted to lowest exponent 0 and scaled by the c in ±r whose
lowest coefficient is least, which the text form prints and doteq compares.
The numerator is the determinant of the substitution walker's reduced
matrix (`fox.reduced_fox_matrix`), (seeds - 1) n square instead of one block
row per relator, whose sparse rows `polydet.det_sparse` reads as they are,
times the exact monomial unit the walker returns, so `value`
is the column-deleted Fox minor's determinant itself, not only up to units.
The generator determinants are read once per call and serve both that unit
and the det subgroup.  The denominator det(I - rho(g_j) t^phi_j) of a
monomial image is the product over the cycles of its permutation of
1 - P t^(L phi_j) (cycle length L, scale product P); a dense image, which
only conjugation makes, goes through the determinant engine.  Wada allows
any column whose denominator is nonzero, and with phi_j != 0 its t^0
coefficient is det I = 1 (as in Kitano's Reidemeister torsion), so every
such column is admissible and none is searched for.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cyclo import CyclotomicField
from .domains import Domain, ExactDivisionError, QQ, TwistalexError, convert
# specialize_matrix is not called here: the name stays bound because
# perfbench's tracer self-test patches it in this module
from .fox import reduced_fox_matrix, specialize_matrix  # noqa: F401
from .laurent import LaurentPoly, RationalFunction
from .matrix import Monomial
from .polydet import det_poly_matrix, det_sparse
from .presentation import KnotPresentation


class WadaError(TwistalexError):
    pass


@dataclass(frozen=True)
class TwistedPolynomial:
    value: RationalFunction
    det_subgroup: tuple          # generators of the det-image subgroup
    column: int

    @property
    def dom(self) -> Domain:
        return self.value.dom

    def units(self):
        return self._units

    def canonical(self) -> "TwistedPolynomial":
        return self._canonical

    # computed once per instance: the instance is frozen, so they cannot go stale
    @cached_property
    def _units(self):
        return unit_subgroup(self.dom, self.det_subgroup)

    @cached_property
    def _canonical(self) -> "TwistedPolynomial":
        num, den = canonical_pair(self.value, self.units())
        return TwistedPolynomial(RationalFunction(num, den, reduce=False),
                                 self.det_subgroup, self.column)

    def is_laurent(self) -> bool:
        return self.value.is_laurent()

    def scale(self, c) -> "TwistedPolynomial":
        return TwistedPolynomial(self.value.scale(c), self.det_subgroup, self.column)

    def to_text(self) -> str:
        c = self.canonical()
        num = c.value.num.to_text()
        den = c.value.den.to_text()
        return num if den == "1" else f"({num}) / ({den})"


_SUBGROUP_CAP = 20000  # the most elements unit_subgroup enumerates


def unit_subgroup(dom: Domain, gens) -> tuple:
    """Closure of the subgroup of dom* generated by gens.

    Each generator must be a root of unity (g^N = 1 for dom's torsion
    exponent N); any other generator is refused before enumerating, and a
    subgroup above _SUBGROUP_CAP elements while enumerating.
    """
    one = dom.one()
    n = dom.torsion_exponent
    # conjugate meridians share a determinant: drop repeats, keeping the
    # first of each, which leaves the enumeration order unchanged
    gens = list({dom.sort_key(g): g for g in gens}.values())
    for g in gens:
        if not dom.eq(dom.pow(g, n), one):
            raise WadaError(f"determinant generator {dom.to_str(g)} has infinite order "
                            f"in {dom.name}; the determinant subgroup must be finite")
    elems = {dom.sort_key(one): one}
    frontier = [one]
    inv_gens = [dom.inv(g) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for g in list(gens) + inv_gens:
                y = dom.mul(x, g)
                k = dom.sort_key(y)
                if k not in elems:
                    elems[k] = y
                    nxt.append(y)
                    if len(elems) > _SUBGROUP_CAP:
                        raise WadaError(f"determinant subgroup has more than {_SUBGROUP_CAP} "
                                        "elements")
        frontier = nxt
    return tuple(elems.values())


def _denominator(dom: Domain, img, e: int) -> LaurentPoly:
    """det(I - img t^e) for a generator image img and e != 0."""
    if isinstance(img, Monomial):  # prod over the cycles of 1 - P t^(L e)
        den = LaurentPoly.one(dom)
        for length, prod in img.cycle_products(dom):
            den = den * LaurentPoly.from_terms(dom, {0: dom.one(), length * e: dom.neg(prod)})
        return den
    n = len(img)
    block = [[LaurentPoly.from_terms(dom, {0: dom.one() if a == b else dom.zero(),
                                           e: dom.neg(img[a][b])})
              for b in range(n)] for a in range(n)]
    return det_poly_matrix(block, dom)


def wada_invariant(pres: KnotPresentation, rep, column: int | None = None) -> TwistedPolynomial:
    """Wada's invariant of (pres, rep), reduced over the coefficient field.

    The column defaults to the first generator with phi != 0.  Every such
    column is admissible: det(I - rho(g_j) t^phi_j) has t^0 coefficient
    det I = 1, so it never vanishes.  A requested column out of range or
    with phi = 0 is refused.
    """
    dom = rep.dom
    field = dom if dom.is_field else QQ  # ZZ is the only non-field domain
    if column is None:
        column = next(j for j, e in enumerate(pres.phi) if e != 0)
    elif not 0 <= column < pres.generator_count:
        raise WadaError(f"column {column} out of range")
    elif pres.phi[column] == 0:
        raise WadaError(f"column {column} has phi = 0")
    den = _denominator(dom, rep.image_of_gen(column, 1), pres.phi[column])
    dets = rep.det_image_generators()
    rows, unit, _ = reduced_fox_matrix(rep, pres, column, dets)
    num = det_sparse(rows, dom) * unit
    if dom is not field:
        num = num.copy_to(field)
        den = den.copy_to(field)
    dets = tuple(convert(d_, dom, field) for d_ in dets)
    value = RationalFunction(num, den)
    return TwistedPolynomial(value, dets, column)


# ----------------------------------------------------------- doteq machinery

# conjectures reads this; it stays here because the acceptance gate imports
# it from this module
def _scalar_ratio(dom: Domain, p: LaurentPoly, q: LaurentPoly):
    """c with p = c*q, or None."""
    if p.is_zero() and q.is_zero():
        return dom.one()
    if p.is_zero() or q.is_zero():
        return None
    p, q = p.shift(-p.low()), q.shift(-q.low())
    try:
        c = dom.div(p[0], q[0])
    except (ExactDivisionError, ZeroDivisionError):
        return None
    return c if q.scale(c) == p else None


def doteq_equal(a: TwistedPolynomial, b: TwistedPolynomial) -> bool:
    """Equality up to units ± t^k r with r in the declared det subgroup.

    Both values are reduced with a normalized denominator, so they are
    equal up to those units iff their canonical forms are equal; any two
    zero values are equal.
    """
    dom = a.dom
    if dom.name != b.dom.name:
        raise WadaError(f"incomparable coefficient fields {a.dom} vs {b.dom}")
    if {dom.sort_key(u) for u in a.units()} != {dom.sort_key(u) for u in b.units()}:
        raise WadaError("incomparable indeterminacy subgroups")
    ca, cb = a.canonical().value, b.canonical().value
    return ca.num == cb.num and (ca.num.is_zero() or ca.den == cb.den)


def canonical_pair(value: RationalFunction, units) -> tuple[LaurentPoly, LaurentPoly]:
    """Canonical (num, den): den monic at lowest exponent 0, num shifted to 0
    and scaled by the c in ±units that puts its lowest coefficient lead * c
    first by (not positive, sort_key).  lead != 0 and sort_key is injective,
    so that coefficient alone orders the lexicographic keys of the multiples."""
    dom = value.dom
    num, den = value.num, value.den
    if num.is_zero():
        return num, den
    num = num.shift(-num.low())
    lead, zero_key, one = num[0], dom.sort_key(dom.zero()), dom.one()

    def key(c):
        k = dom.sort_key(dom.mul(lead, c))
        return k <= zero_key, k

    return num.scale(min((dom.mul(u, s) for u in units for s in (one, dom.neg(one))),
                         key=key)), den


# ------------------------------------------------------------------ satellite

def satellite_scale_factor(delta_c: LaurentPoly, eigen_dom: CyclotomicField, eigenvalues):
    """prod Delta_C(z_i), computed exactly in eigen_dom."""
    f = delta_c.copy_to(eigen_dom)
    acc = eigen_dom.one()
    for z in eigenvalues:
        acc = eigen_dom.mul(acc, f.evaluate(z))
    return acc


def satellite_twisted(dk: TwistedPolynomial, delta_c: LaurentPoly,
                      eigen_dom: CyclotomicField, eigenvalues) -> TwistedPolynomial:
    """The satellite's twisted polynomial: dk scaled by prod Delta_C(z_i).

    The eigenvalues are the exact spectrum of rho(axis) (e.g. orbit character
    values from monodromy_orbit_values); that the axis is null-homologous is
    the caller's obligation, invisible from these inputs.
    """
    factor = satellite_scale_factor(delta_c, eigen_dom, eigenvalues)
    if eigen_dom.is_rational(factor):
        c = eigen_dom.rational_value(factor)
        try:
            c = dk.dom.coerce(c)
        except (ZeroDivisionError, TypeError):
            raise WadaError(f"scale factor {c} has no image in {dk.dom.name}") from None
        return dk.scale(c)
    # factor is not rational, so eigen_dom.m > 2 and a dk.dom it embeds in is a Q(zeta_m)
    if dk.dom.m % eigen_dom.m == 0:
        return dk.scale(dk.dom.embed(factor, eigen_dom))
    raise WadaError("eigenvalue field does not embed into the polynomial's field")
