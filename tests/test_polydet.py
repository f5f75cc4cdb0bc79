import random
from fractions import Fraction
from math import isqrt

import pytest

from twistalex.cyclo import CYC
from twistalex.domains import GF, QQ, ZZ, is_prime
from twistalex.laurent import LaurentPoly, parse_poly
from twistalex.polydet import det_bareiss, det_cofactor, det_modular_int, det_poly_matrix


def rand_zz(rng, span=(-2, 3), cmax=4):
    return LaurentPoly(ZZ, {e: rng.randint(-cmax, cmax) for e in range(*span)})


def test_one_by_one():
    f = parse_poly("3 - t + t^4")
    assert det_poly_matrix([[f]], ZZ) == f


def test_empty_matrix():
    assert det_poly_matrix([], ZZ) == LaurentPoly.one(ZZ)


def test_trefoil_seifert_det():
    v = ((-1, 0), (-1, -1))
    rows = [[LaurentPoly(ZZ, {0: v[i][j], 1: -v[j][i]}) for j in range(2)] for i in range(2)]
    assert det_poly_matrix(rows, ZZ) == parse_poly("1 - t + t^2")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_engines_agree_zz(n):
    rng = random.Random(1000 + n)
    for _ in range(8):
        rows = [[rand_zz(rng) for _ in range(n)] for _ in range(n)]
        d1 = det_cofactor(rows, ZZ)
        d2 = det_bareiss(rows, ZZ)
        d3 = det_modular_int(rows)
        assert d1 == d2 == d3


def test_cofactor_agreement_gf7():
    F = GF(7)
    rng = random.Random(77)
    for _ in range(10):
        rows = [[LaurentPoly(F, {e: rng.randint(0, 6) for e in range(2)})
                 for _ in range(4)] for _ in range(4)]
        assert det_poly_matrix(rows, F) == det_cofactor(rows, F)


def test_cofactor_agreement_qq():
    rng = random.Random(13)
    for _ in range(8):
        rows = [[LaurentPoly(QQ, {e: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                  for e in range(-1, 2)})
                 for _ in range(3)] for _ in range(3)]
        assert det_poly_matrix(rows, QQ) == det_cofactor(rows, QQ)


def test_cofactor_agreement_cyclo():
    F = CYC(4)
    rng = random.Random(21)
    for _ in range(6):
        rows = []
        for _ in range(3):
            row = []
            for _ in range(3):
                c = {}
                for e in range(2):
                    c[e] = F.zeta(rng.randint(0, 3)) if rng.random() < 0.6 else \
                        F.coerce(rng.randint(-2, 2))
                row.append(LaurentPoly(F, c))
            rows.append(row)
        assert det_poly_matrix(rows, F) == det_cofactor(rows, F)


def test_negative_exponent_rows():
    rng = random.Random(5)
    rows = [[rand_zz(rng, span=(-3, 1)) for _ in range(3)] for _ in range(3)]
    assert det_poly_matrix(rows, ZZ) == det_cofactor(rows, ZZ)


def test_zero_row_and_singular():
    z = LaurentPoly.zero(ZZ)
    one = LaurentPoly.one(ZZ)
    assert det_poly_matrix([[z, z], [one, one]], ZZ).is_zero()
    t = parse_poly("t")
    assert det_poly_matrix([[t, t], [t, t]], ZZ).is_zero()


def test_larger_integer_matrix_consistency():
    rng = random.Random(8)
    n = 9
    rows = [[rand_zz(rng, span=(0, 2), cmax=2) for _ in range(n)] for _ in range(n)]
    assert det_modular_int(rows) == det_bareiss(rows, ZZ)


def test_not_square_raises():
    one = LaurentPoly.one(ZZ)
    with pytest.raises(ValueError):
        det_poly_matrix([[one, one]], ZZ)


def test_huge_coefficients_need_multiple_primes():
    # entries far beyond one word-size prime: CRT must recover exactly
    rng = random.Random(31337)
    big = 10**14
    rows = [[LaurentPoly(ZZ, {e: rng.randint(-big, big) for e in range(2)})
             for _ in range(3)] for _ in range(3)]
    assert det_modular_int(rows) == det_cofactor(rows, ZZ)


def test_is_prime_against_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

    assert all(is_prime(n) == trial(n) for n in range(20000))
    for carmichael in (561, 41041, 825265):
        assert not is_prime(carmichael)
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    # strong pseudoprime to every base <= 37: refused, not guessed
    with pytest.raises(ValueError):
        is_prime(318665857834031151167461)
