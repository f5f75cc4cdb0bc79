import random
from fractions import Fraction
from math import isqrt

import pytest

from twistalex.cyclo import CYC, CyclotomicField
from twistalex.domains import GF, QQ, ZZ, Domain, is_prime
from twistalex.laurent import LaurentPoly, parse_poly
from twistalex import polydet
from twistalex.polydet import det_cofactor, det_poly_matrix
from twistalex.reps import _dense_det
from twistalex.snf import _det_int


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
        assert det_poly_matrix(rows, ZZ) == det_cofactor(rows, ZZ)


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
    # too big for the cofactor oracle: the determinant has degree <= n, so its
    # values at t = 0..n fix it; each value comes from the integer kernel
    # behind snf.resultant
    rng = random.Random(8)
    n = 9
    rows = [[rand_zz(rng, span=(0, 2), cmax=2) for _ in range(n)] for _ in range(n)]
    d = det_poly_matrix(rows, ZZ)
    assert d.is_zero() or (d.low() >= 0 and d.deg() <= n)
    for x in range(n + 1):
        assert d.evaluate(x) == _det_int([[f.evaluate(x) for f in row] for row in rows])


def test_not_square_raises():
    one = LaurentPoly.one(ZZ)
    with pytest.raises(ValueError):
        det_poly_matrix([[one, one]], ZZ)


def test_unsupported_domain_raises():
    class Gaussian(Domain):
        name = "ZZ[i]"

    dom = Gaussian()
    with pytest.raises(TypeError, match=r"no determinant engine for ZZ\[i\]"):
        det_poly_matrix([[LaurentPoly.zero(dom)]], dom)


def test_huge_coefficients_need_multiple_primes():
    # entries far beyond one word-size prime: CRT must recover exactly
    rng = random.Random(31337)
    big = 10**14
    rows = [[LaurentPoly(ZZ, {e: rng.randint(-big, big) for e in range(2)})
             for _ in range(3)] for _ in range(3)]
    assert det_poly_matrix(rows, ZZ) == det_cofactor(rows, ZZ)


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


# ------------------------------------------------ the multimodular engine

ENGINE_MS = [1, 2, 3, 4, 5, 12, 20, 28]


def _engine_dom(m):
    return QQ if m == 1 else CYC(m)


def _rand_coeff(rng, dom, cmax=3, fractional=True):
    """A random coefficient; fractional power-basis coordinates if asked."""
    den = (lambda: rng.choice([1, 1, 2, 3])) if fractional else (lambda: 1)
    if dom is QQ:
        return Fraction(rng.randint(-cmax, cmax), den())
    return tuple(Fraction(rng.randint(-cmax, cmax), den()) for _ in range(dom.degree))


def _rand_matrix(rng, dom, n, span=(-1, 2), **kw):
    return [[LaurentPoly(dom, {e: _rand_coeff(rng, dom, **kw) for e in range(*span)
                               if rng.random() < 0.7})
             for _ in range(n)] for _ in range(n)]


def _coords(dom, v):
    return (v,) if dom is QQ or dom is ZZ else v


@pytest.mark.parametrize("m", ENGINE_MS)
def test_multimodular_engine_against_bareiss_and_cofactor(m):
    dom = _engine_dom(m)
    rng = random.Random(4000 + m)
    sizes = [1, 2, 3, 4, 5] + ([6] if m <= 5 else [])
    span = (-1, 2) if m <= 5 else (-1, 1)  # keeps the oracle quick
    for n in sizes:
        rows = _rand_matrix(rng, dom, n, span=span)
        assert det_poly_matrix(rows, dom) == det_cofactor(rows, dom), (m, n)


@pytest.mark.parametrize("m", ENGINE_MS)
def test_multimodular_engine_degenerate_inputs(m):
    dom = _engine_dom(m)
    rng = random.Random(5000 + m)
    zero, one = LaurentPoly.zero(dom), LaurentPoly.one(dom)
    t = LaurentPoly.t(dom)
    # a zero row
    rows = _rand_matrix(rng, dom, 3)
    rows[1] = [zero] * 3
    assert det_poly_matrix(rows, dom).is_zero()
    # an identically zero determinant: row 2 = c * t^-1 * row 0 + row 1
    rows = _rand_matrix(rng, dom, 4)
    c = LaurentPoly(dom, {-1: _rand_coeff(rng, dom)})
    rows[2] = [c * a + b for a, b in zip(rows[0], rows[1])]
    assert det_poly_matrix(rows, dom).is_zero()
    assert det_cofactor(rows, dom).is_zero()
    # det = t^-1 (t - 1)(t - 2)(t + 3) vanishes at the evaluation points 1, 2:
    # L U with L unit lower triangular (constants), U upper triangular
    diag = [t - one, t - one - one, t + one + one + one, LaurentPoly.t(dom, -1)]
    n = len(diag)
    lower = [[one if i == j else (LaurentPoly.const(dom, _rand_coeff(rng, dom)) if j < i
                                  else zero) for j in range(n)] for i in range(n)]
    upper = [[diag[i] if i == j else (_rand_matrix(rng, dom, 1)[0][0] if j > i else zero)
              for j in range(n)] for i in range(n)]
    rows = [[sum((lower[i][k] * upper[k][j] for k in range(n)), zero) for j in range(n)]
            for i in range(n)]
    rows[0], rows[3] = rows[3], rows[0]  # one swap: det changes sign
    expect = zero - diag[0] * diag[1] * diag[2] * diag[3]
    assert det_poly_matrix(rows, dom) == expect == det_cofactor(rows, dom)


def _row_norm_product(rows, dom):
    """H = prod over rows of the summed l1-norms of the coefficient coordinates."""
    h = 1
    for row in rows:
        h *= sum(abs(x) for f in row for v in f.c.values() for x in _coords(dom, v))
    return h


def test_coordinate_bound_constants():
    assert [polydet._coordinate_bound(m) for m in (1, 2, 12, 20, 28, 76)] == [1, 1, 2, 4, 6, 18]


@pytest.mark.parametrize("m", ENGINE_MS)
def test_coordinate_bound_holds(m):
    # integer coordinates, no negative exponents: the det's coordinates are
    # bounded by C_m * H for the matrix itself
    dom = _engine_dom(m)
    rng = random.Random(6000 + m)
    cm = polydet._coordinate_bound(m)
    for n in (2, 3, 4):
        rows = _rand_matrix(rng, dom, n, span=(0, 2), cmax=5, fractional=False)
        d = det_cofactor(rows, dom)
        biggest = max((abs(x) for v in d.c.values() for x in _coords(dom, v)), default=0)
        assert biggest <= cm * _row_norm_product(rows, dom), (m, n)


@pytest.mark.parametrize("m", [1, 12])
def test_large_coefficients_take_the_primes_the_bound_implies(m, monkeypatch):
    dom = ZZ if m == 1 else CYC(m)
    rng = random.Random(777 + m)
    big = 10**9
    rows = [[LaurentPoly(dom, {e: (rng.randint(-big, big) if dom is ZZ else
                                   tuple(Fraction(rng.randint(-big, big))
                                         for _ in range(dom.degree)))
                               for e in range(2)})
             for _ in range(3)] for _ in range(3)]
    need = 2 * polydet._coordinate_bound(m) * _row_norm_product(rows, dom) + 1
    step = 2 * m if m % 2 else m  # primes q = 1 (mod lcm(2, m)), descending
    expected, prod, q = 0, 1, 2**31 - 1
    while prod <= need:
        if q % step == 1 and is_prime(q):
            expected += 1
            prod *= q
        q -= 2
    used = []
    real = polydet._coords_mod_q
    monkeypatch.setattr(polydet, "_coords_mod_q",
                        lambda a, m_, q_, npoints: used.append(q_) or real(a, m_, q_, npoints))
    d = det_poly_matrix(rows, dom)
    assert expected >= 3
    assert len(used) == expected
    assert all(q_ % step == 1 for q_ in used)
    assert d == det_cofactor(rows, dom)


@pytest.mark.parametrize("dom", [QQ, CYC(3), CYC(12), GF(5), ZZ], ids=str)
def test_dense_det_matches_cofactor(dom):
    rng = random.Random(31)

    def entry():
        if dom is ZZ:
            return rng.randint(-4, 4)
        if dom is QQ or isinstance(dom, CyclotomicField):
            return _rand_coeff(rng, dom)
        return rng.randint(0, dom.p - 1)

    for n in range(6):
        a = [tuple(entry() for _ in range(n)) for _ in range(n)]
        want = det_cofactor([[LaurentPoly(dom, {0: x}) for x in row] for row in a], dom)
        assert dom.eq(_dense_det(dom, a), want[0]), (dom, n)
