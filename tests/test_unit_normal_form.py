"""The one normal form for Wada's indeterminacy against the two algorithms it
replaced, kept here verbatim as references: the canonical numerator chosen by
scaling the whole numerator by every unit multiple, and doteq by
cross-multiplying both values and searching for their ratio."""
import random
from fractions import Fraction

import pytest

from twistalex.cyclo import CYC, CyclotomicField
from twistalex.domains import GF, QQ, Domain
from twistalex.laurent import LaurentPoly, RationalFunction
from twistalex.twisted import (TwistedPolynomial, WadaError, _scalar_ratio, canonical_pair,
                               doteq_equal)


def trial_doteq_equal(a: TwistedPolynomial, b: TwistedPolynomial) -> bool:
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


def trial_canonical_pair(value: RationalFunction, units) -> tuple[LaurentPoly, LaurentPoly]:
    """Canonical (num, den): den monic at lowest exponent 0, num shifted to 0
    and normalized by the lexicographically least unit multiple."""
    dom = value.dom
    num, den = value.num, value.den
    if num.is_zero():
        return num, den
    num = num.shift(-num.low())
    zero_key = dom.sort_key(dom.zero())
    best = None
    for u in units:
        for sgn in (dom.one(), dom.neg(dom.one())):
            cand = num.scale(dom.mul(u, sgn))
            positive = dom.sort_key(cand[0]) > zero_key
            key = (not positive, tuple(map(dom.sort_key, cand.coeffs())))
            if best is None or key < best[0]:
                best = (key, cand)
    return best[1], den


# each field with det subgroups whose unit groups lack -1 and hold it: over
# GF(7) 2 has order 3 and 3 order 6; over Q(zeta_12) zeta^4 has order 3
def _cases():
    z3, z12 = CYC(3), CYC(12)
    return [
        (QQ, [(), (QQ.coerce(-1),)]),
        (GF(7), [(), (2,), (3,)]),
        (GF(2), [()]),
        (z3, [(), (z3.zeta(1),)]),
        (z12, [(), (z12.zeta(4),), (z12.zeta(1),), (z12.zeta(3), z12.zeta(4))]),
    ]


def _coeff(rng: random.Random, dom: Domain):
    if isinstance(dom, CyclotomicField):
        return dom.coerce(tuple(Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2]))
                                for _ in range(dom.degree)))
    if dom is QQ:
        return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
    return dom.coerce(rng.randrange(dom.p))


def _poly(rng, dom, lo=-2, hi=3):
    top = rng.randint(lo, hi)
    return LaurentPoly.from_terms(dom, {e: _coeff(rng, dom) for e in range(lo, top)})


def _nonzero(rng, dom, **kw):
    while True:
        f = _poly(rng, dom, **kw)
        if not f.is_zero():
            return f


def _value(rng, dom):
    """A reduced value: den 1, a random den, or a common factor cancelled."""
    num = _nonzero(rng, dom) if rng.random() < 0.9 else LaurentPoly.zero(dom)
    kind = rng.randrange(3)
    den = LaurentPoly.one(dom) if kind == 0 else _nonzero(rng, dom, lo=0, hi=3)
    if kind == 2:
        g = _nonzero(rng, dom, lo=0, hi=2)
        num, den = num * g, den * g
    return RationalFunction(num, den)


def _unit_multiple(rng, dom, units):
    u = rng.choice(units)
    return dom.neg(u) if rng.random() < 0.5 else u


@pytest.mark.parametrize("seed", range(6))
def test_canonical_pair_and_doteq_match_the_trial_references(seed):
    rng = random.Random(9100 + seed)
    outcomes = set()
    for dom, subgroups in _cases():
        for gens in subgroups:
            for _ in range(12):
                a = TwistedPolynomial(_value(rng, dom), gens, 0)
                units = a.units()
                assert canonical_pair(a.value, units) == trial_canonical_pair(a.value, units)
                # the same orbit: a unit multiple times a power of t
                c = _unit_multiple(rng, dom, units)
                same = RationalFunction(a.value.num.scale(c).shift(rng.randint(-3, 3)),
                                        a.value.den)
                # another value, and a multiple outside the units (2 over
                # QQ and Q(zeta_m); over GF(p) any scalar, which may be a unit)
                other = _value(rng, dom)
                off = a.value.scale(dom.coerce(2)) if dom.coerce(2) else a.value
                for v in (same, other, off):
                    b = TwistedPolynomial(v, gens, 1)
                    assert canonical_pair(v, units) == trial_canonical_pair(v, units)
                    got = doteq_equal(a, b)
                    assert got == trial_doteq_equal(a, b) == doteq_equal(b, a), (dom, gens, a, b)
                    outcomes.add((v is same, got))
    # equal orbits, distinct values, and scalar multiples on both sides of the line
    assert {(True, True), (False, True), (False, False)} <= outcomes


def test_zero_values_are_equal_whatever_their_denominators():
    for dom, subgroups in _cases():
        zero = LaurentPoly.zero(dom)
        a = TwistedPolynomial(RationalFunction(zero, LaurentPoly.one(dom)), subgroups[-1], 0)
        b = TwistedPolynomial(RationalFunction(zero, LaurentPoly.from_terms(
            dom, {0: dom.one(), 1: dom.one()})), subgroups[-1], 0)
        assert a.value.den != b.value.den
        assert doteq_equal(a, b) and trial_doteq_equal(a, b)
        one = TwistedPolynomial(RationalFunction(LaurentPoly.one(dom), LaurentPoly.one(dom)),
                                subgroups[-1], 0)
        assert not doteq_equal(a, one) and not trial_doteq_equal(a, one)
