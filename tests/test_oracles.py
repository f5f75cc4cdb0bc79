"""Checks against theorems from the literature, not against the engine itself.

- The trivial representation gives Delta_K(t) / (t - 1), with Delta_K the
  published value frozen in `knots.py`.
- Duality for unitary representations (Kirk-Livingston 1999): W(t^-1)
  equals the complex conjugate of W(t) up to units.  Every metabelian rep is
  a permutation matrix times roots of unity, and so is a one-dimensional
  rep onto a root of unity; they are unitary, and complex conjugation is the
  Galois map zeta -> zeta^-1, applied coefficientwise.

A mismatch here is an engine defect, not a reason to change the check.
"""
from math import lcm

import pytest

from twistalex.cyclo import CYC
from twistalex.knots import KNOT_TABLE, alexander_fixture, presentation
from twistalex.laurent import LaurentPoly, RationalFunction, parse_poly
from twistalex.metabelian import branched_cover_homology, characters_of_quotient
from twistalex.reps import rep_metabelian, rep_onedim, rep_trivial
from twistalex.twisted import TwistedPolynomial, doteq_equal, wada_invariant

KNOTS = [f.name for f in KNOT_TABLE]


def _prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


@pytest.mark.parametrize("name", KNOTS)
def test_trivial_rep_gives_alexander_over_t_minus_1(name):
    pres = presentation(name)
    tw = wada_invariant(pres, rep_trivial(pres))
    field = tw.dom
    target = RationalFunction(alexander_fixture(name).copy_to(field),
                              parse_poly("-1 + t").copy_to(field))
    assert doteq_equal(tw, TwistedPolynomial(target, tw.det_subgroup, tw.column))


def _galois_conjugate(dom, v):
    """zeta -> zeta^-1 on a power-basis coordinate tuple."""
    acc = dom.zero()
    for k, c in enumerate(v):
        if c:
            acc = dom.add(acc, dom.scale(dom.zeta(-k), c))
    return acc


def _metabelian_cases():
    """(knot, p, character index): for every prime p dividing the exponent of
    H_1 of the 2-fold branched cover, the first nontrivial character mod p."""
    for name in KNOTS:
        q = branched_cover_homology(presentation(name), 2)
        for p in _prime_factors(q.structure.exponent()):
            chars = characters_of_quotient(q, p)
            yield name, p, next(i for i, c in enumerate(chars) if not c.is_trivial())


def _dual_and_conjugate(tw):
    """(W(t^-1), conj W(t)) as TwistedPolynomials in tw's unit class."""
    dom = tw.dom

    def both(f):
        return (LaurentPoly(dom, {-e: v for e, v in f.c.items()}),
                LaurentPoly(dom, {e: _galois_conjugate(dom, v) for e, v in f.c.items()}))

    (num_d, num_c), (den_d, den_c) = both(tw.value.num), both(tw.value.den)
    return (TwistedPolynomial(RationalFunction(num_d, den_d), tw.det_subgroup, tw.column),
            TwistedPolynomial(RationalFunction(num_c, den_c), tw.det_subgroup, tw.column))


@pytest.mark.parametrize("name,p,idx", list(_metabelian_cases()))
def test_unitary_duality_for_metabelian_reps(name, p, idx):
    pres = presentation(name)
    chi = characters_of_quotient(branched_cover_homology(pres, 2), p)[idx]
    rep = rep_metabelian(pres, 2, chi)
    assert rep.dom is CYC(lcm(p, 4))
    assert doteq_equal(*_dual_and_conjugate(wada_invariant(pres, rep)))


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("name", KNOTS)
def test_unitary_duality_for_root_of_unity_characters(name, m):
    # W = Delta(zeta t) / (1 - zeta t) is not real, so here the duality
    # needs the conjugation: W(t^-1) is not W(t) up to units
    pres = presentation(name)
    F = CYC(m)
    tw = wada_invariant(pres, rep_onedim(pres, F.zeta(1), F))
    dual, conj = _dual_and_conjugate(tw)
    assert doteq_equal(dual, conj)
    assert not doteq_equal(dual, tw)
