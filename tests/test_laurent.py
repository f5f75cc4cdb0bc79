import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistalex
from twistalex.cyclo import CYC
from twistalex.domains import GF, QQ, ZZ, ExactDivisionError
from twistalex.laurent import (SPAN_CAP, LaurentPoly, RationalFunction, parse_poly,
                               poly_divmod)


def rand_poly(rng, dom=ZZ, span=(-3, 4), cmax=6):
    return LaurentPoly.from_terms(dom, {e: rng.randint(-cmax, cmax) for e in range(*span)})


coeffs = st.dictionaries(st.integers(-5, 8), st.integers(-9, 9), max_size=6)


@given(coeffs, coeffs, coeffs)
@settings(max_examples=300)
def test_ring_axioms_zz(a, b, c):
    f = LaurentPoly.from_terms(ZZ, a)
    g = LaurentPoly.from_terms(ZZ, b)
    h = LaurentPoly.from_terms(ZZ, c)
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + (-f) == LaurentPoly.zero(ZZ)
    assert f * LaurentPoly.one(ZZ) == f


@given(coeffs, coeffs)
@settings(max_examples=150)
def test_ring_axioms_gf7(a, b):
    F = GF(7)
    f = LaurentPoly.from_terms(F, {e: v % 7 for e, v in a.items()})
    g = LaurentPoly.from_terms(F, {e: v % 7 for e, v in b.items()})
    assert f * g == g * f
    assert (f + g) * (f + g) == f * f + f * g + f * g + g * g


def test_many_random_triples_associativity():
    # spec asks for >= 1000 random triples
    rng = random.Random(20240601)
    for _ in range(1100):
        f, g, h = (rand_poly(rng) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_text_round_trip():
    cases = [
        "3 - 13*t^2 + 13*t^4 - 3*t^6",
        "1 - t + t^2",
        "-3 + t",
        "t^-2 + 1 - 5*t^3",
        "0",
        "7",
        "-t",
    ]
    for text in cases:
        f = parse_poly(text)
        assert parse_poly(f.to_text()) == f
    assert parse_poly("1 - t + t^2").to_text() == "1 - t + t^2"


def test_parse_rejects_garbage():
    for bad in ("", "t^", "1 +* t", "x^2"):
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_exact_div_and_failure():
    f = parse_poly("1 - t^2")
    g = parse_poly("1 + t")
    assert f.exact_div(g) == parse_poly("1 - t")
    with pytest.raises(ExactDivisionError):
        parse_poly("1 + t^2").exact_div(parse_poly("1 + t"))
    with pytest.raises(ExactDivisionError):
        parse_poly("1").exact_div(parse_poly("1 - t"))


def test_divmod_and_gcd_over_qq():
    f = parse_poly("1 - 2*t + t^2").copy_to(QQ)
    g = parse_poly("1 - t").copy_to(QQ)
    q, r = poly_divmod(QQ, f.coeffs(), g.coeffs())
    assert r == [] and q == [1, -1]
    assert f.gcd(g) == parse_poly("-1 + t").copy_to(QQ).scale(Fraction(1))


def test_laurent_shifted_gcd():
    f = parse_poly("t^-1 - t").copy_to(QQ)  # t^-1 (1 - t^2)
    g = parse_poly("1 + t").copy_to(QQ)
    assert f.gcd(g) == parse_poly("1 + t").copy_to(QQ)


def test_subs_and_eval():
    f = parse_poly("1 - t + 2*t^3")
    assert f.subs_neg_t() == parse_poly("1 + t - 2*t^3")
    assert LaurentPoly.from_terms(ZZ, {2 * e: v for e, v in f.terms()}) == parse_poly(
        "1 - t^2 + 2*t^6")
    assert f.evaluate(2) == 1 - 2 + 16
    g = parse_poly("t^-1 + t").copy_to(QQ)
    assert g.evaluate(Fraction(2)) == Fraction(5, 2)


def test_poly_in_power():
    assert parse_poly("3 - 13*t^2 + 13*t^4 - 3*t^6").poly_in_power(2)
    assert not parse_poly("t").poly_in_power(2)
    assert parse_poly("5").poly_in_power(17)
    with pytest.raises(ValueError):
        parse_poly("1").poly_in_power(0)


def test_rational_function_normalization():
    num = parse_poly("t^2 - t^4").copy_to(QQ)
    den = parse_poly("2*t - 2*t^2").copy_to(QQ)
    rf = RationalFunction(num, den)
    # den becomes monic with lowest exponent 0; gcd removed
    assert rf.den.low() == 0
    assert rf.den[rf.den.deg()] == 1
    assert rf.num * den == num * rf.den


def test_rational_function_equality():
    a = RationalFunction(parse_poly("1 - t^2").copy_to(QQ), parse_poly("1 - t").copy_to(QQ))
    b = RationalFunction(parse_poly("1 + t").copy_to(QQ), parse_poly("1").copy_to(QQ))
    assert a == b


def test_parse_refuses_a_span_above_the_cap():
    assert parse_poly(f"1 + t^{SPAN_CAP}").deg() == SPAN_CAP
    assert parse_poly(f"t^-{SPAN_CAP // 2} + t^{SPAN_CAP // 2}").low() == -(SPAN_CAP // 2)
    for text, lo, hi in ((f"1 + t^{SPAN_CAP + 1}", 0, SPAN_CAP + 1),
                         (f"t^-{SPAN_CAP} - t + t^{10**12}", -SPAN_CAP, 10**12)):
        with pytest.raises(ValueError, match=f"spans exponents {lo}..{hi}, wider than "
                                             f"the cap SPAN_CAP = {SPAN_CAP}"):
            parse_poly(text)


# ------------------------------------------------------ one stored form

CANONICAL_DOMAINS = {
    "ZZ": (ZZ, st.integers(-3, 3)),
    "GF(5)": (GF(5), st.integers(0, 4)),
    "Q(zeta_3)": (CYC(3), st.sampled_from([CYC(3).zero(), CYC(3).one(), CYC(3).zeta(1),
                                           CYC(3).coerce(Fraction(-1, 2))])),
}


@pytest.mark.parametrize("name", CANONICAL_DOMAINS)
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_stored_form_however_built(name, data):
    # a mapping with explicit zeros, a dense list padded with zeros at either
    # end and (f + g) - g all give one polynomial: equal, hashing equal and
    # printing the same
    dom, elems = CANONICAL_DOMAINS[name]
    terms = data.draw(st.dictionaries(st.integers(-5, 5), elems, max_size=6))
    f = LaurentPoly.from_terms(dom, {e: v for e, v in terms.items() if not dom.is_zero(v)})
    lo, hi = min(terms, default=0), max(terms, default=0)
    left, right = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    dense = [dom.zero()] * left + [terms.get(e, dom.zero()) for e in range(lo, hi + 1)]
    g = LaurentPoly.from_terms(dom, data.draw(st.dictionaries(st.integers(-5, 5), elems,
                                                             max_size=6)))
    for h in (LaurentPoly.from_terms(dom, terms),
              LaurentPoly(dom, dense + [dom.zero()] * right, lo - left),
              (f + g) - g):
        assert h == f and hash(h) == hash(f) and h.to_text() == f.to_text()
        assert (h.low(), h.deg(), list(h.terms())) == (f.low(), f.deg(), list(f.terms()))
    if f.is_zero():
        assert f == LaurentPoly.zero(dom) and (f.low(), f.deg(), f.to_text()) == (0, -1, "0")


@pytest.mark.parametrize("dom", [ZZ, GF(5), CYC(3)], ids=str)
def test_zero_has_one_form(dom):
    zero = LaurentPoly.zero(dom)
    one = LaurentPoly.one(dom)
    for z in (LaurentPoly(dom, [dom.zero()] * 4, -7), LaurentPoly.from_terms(dom, {9: dom.zero()}),
              one - one, (one - one).shift(5), LaurentPoly.t(dom, 3).scale(dom.zero()),
              zero * LaurentPoly.t(dom, -4)):
        assert z.is_zero() and z == zero and hash(z) == hash(zero)
        assert (z.low(), z.deg(), list(z.terms()), z.to_text()) == (0, -1, [], "0")


# ------------------------------------------------------------ layout lint

def _storage_uses(source: str, slots) -> list[int]:
    """Lines of source that name a storage slot, as an attribute or a string."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in slots
            or isinstance(node, ast.Constant) and node.value in slots]


def test_only_laurent_touches_the_storage():
    slots = set(LaurentPoly.__slots__) - {"dom"}
    assert slots and _storage_uses("f._low\ng = getattr(f, '_coeffs')\n", slots) == [1, 2]
    offenders = {path.name: lines for path in Path(twistalex.__file__).parent.glob("*.py")
                 if path.name != "laurent.py"
                 for lines in [_storage_uses(path.read_text(), slots)] if lines}
    assert offenders == {}
