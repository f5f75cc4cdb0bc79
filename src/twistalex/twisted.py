"""Wada's invariant of a presentation and a representation.

The value is det((rho tensor t^phi)(M_j)) / det((rho tensor t^phi)(1 - g_j))
for an admissible deleted column j, as a reduced rational function over the
coefficient field, together with the unit subgroup {± t^k r} describing its
indeterminacy (r ranges over the subgroup generated by determinants of the
image).  doteq comparison and canonical text forms quotient that unit out.
The numerator is the determinant of the substitution walker's reduced
matrix (`fox.reduced_fox_matrix`), (seeds - 1) n square instead of one block
row per relator, times the exact monomial unit the walker returns, so `value`
is the column-deleted Fox minor's determinant itself, not only up to units.
The generator determinants are read once per call and serve both that unit
and the det subgroup.  The denominator block I - rho(g_j) t^phi_j is read off
the generator image.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .cyclo import CyclotomicField
from .domains import Domain, ExactDivisionError, PrimeField, QQ, convert
# specialize_matrix is not called here: the name stays bound because
# perfbench's tracer self-test patches it in this module
from .fox import reduced_fox_matrix, specialize_matrix  # noqa: F401
from .laurent import LaurentPoly, RationalFunction
from .matrix import to_dense
from .polydet import det_poly_matrix
from .presentation import KnotPresentation


class WadaError(ArithmeticError):
    pass


@dataclass(frozen=True)
class TwistedPolynomial:
    value: RationalFunction
    det_subgroup: tuple          # generators of the det-image subgroup
    column: int
    label: str = ""

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
                                 self.det_subgroup, self.column, self.label)

    def is_laurent(self) -> bool:
        return self.value.is_laurent()

    def scale(self, c) -> "TwistedPolynomial":
        return TwistedPolynomial(self.value.scale(c), self.det_subgroup,
                                 self.column, self.label)

    def to_text(self) -> str:
        c = self.canonical()
        num = c.value.num.to_text()
        den = c.value.den.to_text()
        return num if den == "1" else f"({num}) / ({den})"


def _torsion_exponent(dom: Domain) -> int:
    """N with u^N = 1 for every root of unity u in dom."""
    if isinstance(dom, CyclotomicField):
        return lcm(2, dom.m)
    if isinstance(dom, PrimeField):
        return dom.p - 1
    return 2


def unit_subgroup(dom: Domain, gens) -> tuple:
    """Closure of the subgroup of dom* generated by gens.

    Each generator must be a root of unity (g^N = 1 for dom's torsion
    exponent N); any other generator is refused before enumerating.
    """
    one = dom.one()
    n = _torsion_exponent(dom)
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
    cap = 20000
    while frontier:
        nxt = []
        for x in frontier:
            for g in list(gens) + inv_gens:
                y = dom.mul(x, g)
                k = dom.sort_key(y)
                if k not in elems:
                    elems[k] = y
                    nxt.append(y)
                    if len(elems) > cap:
                        raise WadaError(f"determinant subgroup has more than {cap} elements")
        frontier = nxt
    return tuple(elems.values())


def wada_invariant(pres: KnotPresentation, rep, column: int | None = None) -> TwistedPolynomial:
    """Wada's invariant of (pres, rep), reduced over the coefficient field.

    The column defaults to the first generator with phi != 0 whose denominator
    determinant is nonzero; a requested column with vanishing denominator is
    an error rather than a division by zero.
    """
    dom = rep.dom
    field = dom if dom.is_field else QQ  # ZZ is the only non-field domain
    n = rep.dim

    def denominator_for(j: int) -> LaurentPoly:
        # I - rho(g_j) t^phi_j, with phi_j != 0
        img = to_dense(dom, rep.image_of_gen(j, 1))
        block = [[LaurentPoly(dom, {0: dom.one() if a == b else dom.zero(),
                                    pres.phi[j]: dom.neg(img[a][b])})
                  for b in range(n)] for a in range(n)]
        return det_poly_matrix(block, dom)

    if column is not None and not 0 <= column < pres.generator_count:
        raise WadaError(f"column {column} out of range")
    candidates = [column] if column is not None else [
        j for j in range(pres.generator_count) if pres.phi[j] != 0
    ]
    chosen = None
    den = None
    for j in candidates:
        if pres.phi[j] == 0 and column is not None:
            raise WadaError(f"column {j} has phi = 0")
        d = denominator_for(j)
        if not d.is_zero():
            chosen, den = j, d
            break
    if chosen is None:
        raise WadaError("no admissible column: every denominator determinant vanishes")
    dets = rep.det_image_generators()
    rows, unit = reduced_fox_matrix(rep, pres, chosen, dets)
    num = det_poly_matrix(rows, dom) * unit
    if dom is not field:
        num = num.copy_to(field)
        den = den.copy_to(field)
    dets = tuple(convert(d_, dom, field) for d_ in dets)
    value = RationalFunction(num, den)
    return TwistedPolynomial(value, dets, chosen, label=getattr(rep, "label", ""))


# ----------------------------------------------------------- doteq machinery

def _scalar_ratio(dom: Domain, p: LaurentPoly, q: LaurentPoly):
    """c with p = c*q, or None."""
    if p.is_zero() and q.is_zero():
        return dom.one()
    if p.is_zero() or q.is_zero():
        return None
    lp, lq = p.low(), q.low()
    p = p.shift(-lp)
    q = q.shift(-lq)
    if p.c.keys() != q.c.keys():
        return None
    try:
        c = dom.div(p.c[0], q.c[0])
    except (ExactDivisionError, ZeroDivisionError):
        return None
    for e, v in p.c.items():
        if not dom.eq(v, dom.mul(c, q.c[e])):
            return None
    return c


def doteq_equal(a: TwistedPolynomial, b: TwistedPolynomial) -> bool:
    """Equality up to units ± t^k r with r in the declared det subgroup."""
    dom = a.dom
    if dom.name != b.dom.name:
        raise WadaError(f"incomparable coefficient fields {a.dom} vs {b.dom}")
    ua = {dom.sort_key(u) for u in a.units()}
    ub = {dom.sort_key(u) for u in b.units()}
    if ua != ub:
        raise WadaError("incomparable indeterminacy subgroups")
    p = a.value.num * b.value.den
    q = b.value.num * a.value.den
    c = _scalar_ratio(dom, p, q)
    if c is None:
        return False
    negc = dom.neg(c)
    return dom.sort_key(c) in ua or dom.sort_key(negc) in ua


def canonical_pair(value: RationalFunction, units) -> tuple[LaurentPoly, LaurentPoly]:
    """Canonical (num, den): den monic at lowest exponent 0, num shifted to 0
    and normalized by the lexicographically least unit multiple."""
    dom = value.dom
    num, den = value.num, value.den
    den = den.shift(-den.low()) if not den.is_zero() else den
    if num.is_zero():
        return num, den
    num = num.shift(-num.low())
    zero_key = dom.sort_key(dom.zero())
    best = None
    for u in units:
        for sgn in (dom.one(), dom.neg(dom.one())):
            cand = num.scale(dom.mul(u, sgn))
            positive = dom.sort_key(cand.c[0]) > zero_key
            key = (not positive, tuple(dom.sort_key(cand[e]) for e in range(num.deg() + 1)))
            if best is None or key < best[0]:
                best = (key, cand)
    return best[1], den


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
    if isinstance(dk.dom, CyclotomicField):
        target = dk.dom
        if target.m % eigen_dom.m == 0:
            return dk.scale(target.embed(factor, eigen_dom))
    raise WadaError("eigenvalue field does not embed into the polynomial's field")
