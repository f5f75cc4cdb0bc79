import random
from math import isqrt

import pytest

from twistalex import factorint
from twistalex.domains import ZZ
from twistalex.factorint import factor_integer_poly, is_irreducible, verify_factorization
from twistalex.laurent import LaurentPoly, parse_poly


def factor_texts(f):
    unit, content, tpow, factors = factor_integer_poly(f)
    assert verify_factorization(f, unit, content, tpow, factors)
    return unit, content, tpow, [(g.to_text(), m) for g, m in factors]


def test_difference_of_squares():
    unit, content, tpow, facs = factor_texts(parse_poly("t^2 - 1"))
    assert (unit, content, tpow) == (1, 1, 0)
    assert facs == [("-1 + t", 1), ("1 + t", 1)]


def test_counterexample_polynomial():
    # the twisted factor of the 10_164 computation
    unit, content, tpow, facs = factor_texts(parse_poly("3 - 13*t^2 + 13*t^4 - 3*t^6"))
    assert unit == -1 and content == 1 and tpow == 0
    assert facs == [("-1 + t", 1), ("1 + t", 1), ("-3 + t^2", 1), ("-1 + 3*t^2", 1)]


def test_irreducibles():
    assert is_irreducible(parse_poly("1 - t + t^2"))
    assert is_irreducible(parse_poly("-3 + t^2"))
    assert is_irreducible(parse_poly("-1 + 3*t^2"))
    assert is_irreducible(parse_poly("3 - 11*t + 17*t^2 - 11*t^3 + 3*t^4"))
    assert not is_irreducible(parse_poly("1 + 2*t + t^2"))


def test_multiplicities_and_units():
    f = parse_poly("1 + t") * parse_poly("1 + t") * parse_poly("-2 + 2*t^3")
    unit, content, tpow, facs = factor_texts(f)
    assert content == 2
    d = dict(facs)
    assert d["1 + t"] == 2
    assert d["-1 + t"] == 1
    assert d["1 + t + t^2"] == 1


def test_laurent_t_power_factor():
    f = parse_poly("-2*t^-3 + 2*t^-1")
    unit, content, tpow, facs = factor_texts(f)
    assert tpow == -3 and content == 2
    assert facs == [("-1 + t", 1), ("1 + t", 1)]


def test_each_factor_certified_irreducible():
    # the same routine finds no further splitting of any returned factor
    f = parse_poly("3 - 13*t^2 + 13*t^4 - 3*t^6") * parse_poly("1 - 5*t + t^2")
    _, _, _, facs = factor_integer_poly(f)
    for g, _ in facs:
        _, _, _, sub = factor_integer_poly(g)
        assert len(sub) == 1 and sub[0][1] == 1


def test_random_products_round_trip():
    rng = random.Random(424242)
    for _ in range(60):
        nfac = rng.randint(1, 3)
        f = LaurentPoly.const(ZZ, rng.choice([1, -1, 2, 3]))
        for _ in range(nfac):
            deg = rng.randint(1, 4)
            g = LaurentPoly.from_terms(ZZ, {e: rng.randint(-5, 5) for e in range(deg + 1)})
            if g.is_zero():
                g = parse_poly("1 + t")
            f = f * g
        if f.is_zero():
            continue
        unit, content, tpow, factors = factor_integer_poly(f)
        assert verify_factorization(f, unit, content, tpow, factors)


def test_high_multiplicity():
    f = parse_poly("1 + t")
    acc = LaurentPoly.one(ZZ)
    for _ in range(6):
        acc = acc * f
    unit, content, tpow, facs = factor_texts(acc)
    assert facs == [("1 + t", 6)]


def test_zero_rejected():
    with pytest.raises(ValueError):
        factor_integer_poly(LaurentPoly.zero(ZZ))


def test_degree_cap():
    f = LaurentPoly.from_terms(ZZ, {0: 1, 100: 1})
    with pytest.raises(ValueError):
        factor_integer_poly(f)


def test_hensel_lift_passes_twice_the_coefficient_bound(monkeypatch):
    # 1 + t^2 + t^4 = (1 - t + t^2)(1 + t + t^2) lifts from p = 5 with the
    # bound 2^(n+1) (||f||_2 + 1) = 64; 5^3 = 125 passes 64 but not 2 * 64 + 1,
    # and a factor coefficient in (m/2, bound] needs m > 2 * bound + 1
    lifts = []
    real = factorint._hensel_lift_linear

    def spy(f, facs, p, target):
        lifted, m = real(f, facs, p, target)
        lifts.append((f, p, m))
        return lifted, m

    monkeypatch.setattr(factorint, "_hensel_lift_linear", spy)
    assert factor_texts(parse_poly("1 + t^2 + t^4"))[3] == [("1 - t + t^2", 1), ("1 + t + t^2", 1)]
    [(f, p, m)] = lifts
    bound = (1 << len(f)) * (isqrt(sum(x * x for x in f)) + 1)
    assert (p, bound) == (5, 64)
    assert m >= 2 * bound + 1
