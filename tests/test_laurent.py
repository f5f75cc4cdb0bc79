import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalex.domains import GF, QQ, ZZ, ExactDivisionError
from twistalex.laurent import LaurentPoly, RationalFunction, parse_poly, poly_divmod


def rand_poly(rng, dom=ZZ, span=(-3, 4), cmax=6):
    return LaurentPoly(dom, {e: rng.randint(-cmax, cmax) for e in range(*span)})


coeffs = st.dictionaries(st.integers(-5, 8), st.integers(-9, 9), max_size=6)


@given(coeffs, coeffs, coeffs)
@settings(max_examples=300)
def test_ring_axioms_zz(a, b, c):
    f = LaurentPoly(ZZ, a)
    g = LaurentPoly(ZZ, b)
    h = LaurentPoly(ZZ, c)
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
    f = LaurentPoly(F, {e: v % 7 for e, v in a.items()})
    g = LaurentPoly(F, {e: v % 7 for e, v in b.items()})
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
    f = parse_poly("1 - 2*t + t^2", QQ)
    g = parse_poly("1 - t", QQ)
    q, r = poly_divmod(QQ, f.coeff_list()[0], g.coeff_list()[0])
    assert r == [] and q == [1, -1]
    assert f.gcd(g) == parse_poly("-1 + t", QQ).scale(Fraction(1))


def test_laurent_shifted_gcd():
    f = parse_poly("t^-1 - t", QQ)  # t^-1 (1 - t^2)
    g = parse_poly("1 + t", QQ)
    assert f.gcd(g) == parse_poly("1 + t", QQ)


def test_subs_and_eval():
    f = parse_poly("1 - t + 2*t^3")
    assert f.subs_neg_t() == parse_poly("1 + t - 2*t^3")
    assert LaurentPoly(ZZ, {2 * e: v for e, v in f.c.items()}) == parse_poly("1 - t^2 + 2*t^6")
    assert f.evaluate(2) == 1 - 2 + 16
    g = parse_poly("t^-1 + t", QQ)
    assert g.evaluate(Fraction(2)) == Fraction(5, 2)


def test_poly_in_power():
    assert parse_poly("3 - 13*t^2 + 13*t^4 - 3*t^6").poly_in_power(2)
    assert not parse_poly("t").poly_in_power(2)
    assert parse_poly("5").poly_in_power(17)
    with pytest.raises(ValueError):
        parse_poly("1").poly_in_power(0)


def test_rational_function_normalization():
    num = parse_poly("t^2 - t^4", QQ)
    den = parse_poly("2*t - 2*t^2", QQ)
    rf = RationalFunction(num, den)
    # den becomes monic with lowest exponent 0; gcd removed
    assert rf.den.low() == 0
    assert rf.den.c[rf.den.deg()] == 1
    assert rf.num * parse_poly("2*t - 2*t^2", QQ) == parse_poly("t^2 - t^4", QQ) * rf.den


def test_rational_function_equality():
    a = RationalFunction(parse_poly("1 - t^2", QQ), parse_poly("1 - t", QQ))
    b = RationalFunction(parse_poly("1 + t", QQ), parse_poly("1", QQ))
    assert a == b
