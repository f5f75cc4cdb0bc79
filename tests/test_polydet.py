import os
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt, lcm, prod
from pathlib import Path

import numpy as np
import pytest

from twistalex.cyclo import CYC, PHI_CAP, CyclotomicField, cyclotomic_polynomial
from twistalex.domains import GF, QQ, ZZ, Domain, PrimeField, TwistalexError, is_prime
from twistalex.laurent import LaurentPoly, parse_poly, poly_divmod
from twistalex import polydet
from twistalex.polydet import det_matrix, det_poly_matrix
from twistalex.snf import _det_int

from det_oracle import (assert_clears_as_reference, cleared_reference, count_paths,
                        det_cofactor, engine_det, sparse_rows)


def rand_zz(rng, span=(-2, 3), cmax=4):
    return LaurentPoly.from_terms(ZZ, {e: rng.randint(-cmax, cmax) for e in range(*span)})


def test_one_by_one():
    f = parse_poly("3 - t + t^4")
    assert det_poly_matrix([[f]], ZZ) == f


def test_empty_matrix():
    assert det_poly_matrix([], ZZ) == LaurentPoly.one(ZZ)


def test_trefoil_seifert_det():
    v = ((-1, 0), (-1, -1))
    rows = [[LaurentPoly.from_terms(ZZ, {0: v[i][j], 1: -v[j][i]}) for j in range(2)]
            for i in range(2)]
    assert det_poly_matrix(rows, ZZ) == parse_poly("1 - t + t^2")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_engines_agree_zz(n):
    rng = random.Random(1000 + n)
    for _ in range(8):
        rows = [[rand_zz(rng) for _ in range(n)] for _ in range(n)]
        assert det_poly_matrix(rows, ZZ) == det_cofactor(rows, ZZ)
        assert engine_det(rows, ZZ) == det_cofactor(rows, ZZ)


# det_poly_matrix packs matrices this small (the Kronecker path), so these
# tests call the engine itself
def test_cofactor_agreement_gf7():
    F = GF(7)
    rng = random.Random(77)
    for _ in range(10):
        rows = [[LaurentPoly.from_terms(F, {e: rng.randint(0, 6) for e in range(2)})
                 for _ in range(4)] for _ in range(4)]
        assert engine_det(rows, F) == det_cofactor(rows, F)


def test_cofactor_agreement_qq():
    rng = random.Random(13)
    for _ in range(8):
        rows = [[LaurentPoly.from_terms(QQ, {e: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                             for e in range(-1, 2)})
                 for _ in range(3)] for _ in range(3)]
        assert engine_det(rows, QQ) == det_cofactor(rows, QQ)


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
                row.append(LaurentPoly.from_terms(F, c))
            rows.append(row)
        assert engine_det(rows, F) == det_cofactor(rows, F)


def test_negative_exponent_rows():
    rng = random.Random(5)
    rows = [[rand_zz(rng, span=(-3, 1)) for _ in range(3)] for _ in range(3)]
    assert engine_det(rows, ZZ) == det_cofactor(rows, ZZ)


def test_zero_row_and_singular():
    z = LaurentPoly.zero(ZZ)
    one = LaurentPoly.one(ZZ)
    assert det_poly_matrix([[z, z], [one, one]], ZZ).is_zero()
    t = parse_poly("t")
    assert det_poly_matrix([[t, t], [t, t]], ZZ).is_zero()


def test_larger_integer_matrix_consistency():
    # too big for the cofactor oracle: the determinant has degree <= n, so its
    # values at t = 0..n fix it; each value comes from the integer Bareiss
    # kernel of the cover-order oracle
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
    rows = [[LaurentPoly.from_terms(ZZ, {e: rng.randint(-big, big) for e in range(2)})
             for _ in range(3)] for _ in range(3)]
    assert engine_det(rows, ZZ) == det_cofactor(rows, ZZ)


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
    return [[LaurentPoly.from_terms(dom, {e: dom.coerce(_rand_coeff(rng, dom, **kw))
                                          for e in range(*span) if rng.random() < 0.7})
             for _ in range(n)] for _ in range(n)]


def _coords(dom, v):
    return dom.coords(v) if isinstance(dom, CyclotomicField) else (v,)


@pytest.mark.parametrize("m", ENGINE_MS)
def test_multimodular_engine_against_bareiss_and_cofactor(m):
    # the engine itself, and det_poly_matrix, which packs these sides instead
    dom = _engine_dom(m)
    rng = random.Random(4000 + m)
    sizes = [1, 2, 3, 4, 5] + ([6] if m <= 5 else [])
    span = (-1, 2) if m <= 5 else (-1, 1)  # keeps the oracle quick
    for n in sizes:
        rows = _rand_matrix(rng, dom, n, span=span)
        want = det_cofactor(rows, dom)
        assert engine_det(rows, dom) == want, (m, n)
        assert det_poly_matrix(rows, dom) == want, (m, n)


def test_small_matrices_skip_the_engine(monkeypatch):
    kron, engine = count_paths(monkeypatch)
    rng = random.Random(4100)
    for n in range(7):
        rows = [[rand_zz(rng) for _ in range(n)] for _ in range(n)]
        assert det_poly_matrix(rows, ZZ) == det_cofactor(rows, ZZ)
    assert kron == [2, 3, 4, 5, 6] and engine == []  # sides 0 and 1 take neither
    # every domain packs its small matrices
    del kron[:]
    for dom in (ZZ, GF(7), QQ, CYC(5)):
        for n in (3, 4):
            rows = [[LaurentPoly.from_terms(dom, {e: dom.coerce(rng.randint(-3, 3))
                                                  for e in range(2)})
                     for _ in range(n)] for _ in range(n)]
            assert det_poly_matrix(rows, dom) == det_cofactor(rows, dom)
    assert kron == [3, 4] * 4 and engine == []
    # a constant matrix takes the same route
    del kron[:]
    for n in range(1, 6):
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert det_matrix(a, ZZ) == _det_int(a)
    assert kron == [2, 3, 4, 5] and engine == []


def _diagonal(dom, entries):
    zero = LaurentPoly.zero(dom)
    return [[f if i == j else zero for j, f in enumerate(entries)] for i, f in enumerate(entries)]


def test_numpy_loads_with_the_first_engine_call():
    # Delta, the k = 2..6 covers and the dihedral p = 3 Wada invariants of the
    # corpus take the Kronecker path, so that process never imports numpy; a
    # 30 x 30 diagonal of 1 + t, whose n^2 * b * points = 900 * 32 * 31 is
    # above _KRONECKER_BITS, does
    code = """
import sys
from twistalex import polydet
from twistalex.knots import corpus, presentation
from twistalex.laurent import LaurentPoly
from twistalex.metabelian import alexander_polynomial, branched_cover_homology, find_dihedral_epis
from twistalex.polydet import det_poly_matrix
from twistalex.reps import rep_dihedral
from twistalex.twisted import wada_invariant
from twistalex.domains import ZZ
invariants = 0
for fx in corpus():
    pres = presentation(fx.name)
    assert alexander_polynomial(pres).to_text() == fx.alexander, fx.name
    for k in range(2, 7):
        branched_cover_homology(pres, k)
    for data in find_dihedral_epis(pres, 3):
        wada_invariant(pres, rep_dihedral(pres, data))
        invariants += 1
assert invariants >= 5, invariants
assert "numpy" not in sys.modules
f, want = LaurentPoly.one(ZZ) + LaurentPoly.t(ZZ), LaurentPoly.one(ZZ)
rows = [[f if i == j else LaurentPoly.zero(ZZ) for j in range(30)] for i in range(30)]
for _ in range(30):
    want = want * f
assert 30 * 30 * 32 * 31 > polydet._KRONECKER_BITS
assert det_poly_matrix(rows, ZZ) == want
assert "numpy" in sys.modules
"""
    src = str(Path(polydet.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr


# ------------------------------------------------- the Kronecker path

KRONECKER_DOMS = [ZZ, QQ, GF(7), CYC(3), CYC(5), CYC(12), CYC(20)]


def _kronecker_coeff(rng, dom):
    if dom is ZZ:
        return rng.randint(-4, 4)
    if isinstance(dom, PrimeField):
        return rng.randrange(dom.p)
    return dom.coerce(_rand_coeff(rng, dom))


def _height(rows, dom):
    """H, the product of the row l1-norms once each row is scaled to integers."""
    h = 1
    for row in rows:
        coords = [x for f in row for _, v in f.terms() for x in _coords(dom, v)]
        scale = lcm(*(Fraction(x).denominator for x in coords))
        h *= sum(abs(int(x * scale)) for x in coords)
    return h


@pytest.mark.parametrize("dom", KRONECKER_DOMS, ids=str)
def test_kronecker_path_against_cofactors_and_the_engine(dom, monkeypatch):
    monkeypatch.setattr(polydet, "_KRONECKER_BITS", 1 << 62)  # every side packs
    kron, engine_calls = count_paths(monkeypatch)
    rng = random.Random(7000 + (dom.m if isinstance(dom, CyclotomicField) else len(dom.name)))
    for n in range(9):
        rows = [[LaurentPoly.from_terms(dom, {e: _kronecker_coeff(rng, dom) for e in range(-2, 2)
                                              if rng.random() < 0.4})
                 for _ in range(n)] for _ in range(n)]
        got = det_poly_matrix(rows, dom)
        if n <= 5:
            assert got == det_cofactor(rows, dom), (dom, n)
        assert got == engine_det(rows, dom), (dom, n)
    assert engine_calls == [] and kron and set(kron) <= set(range(2, 9))


@pytest.mark.parametrize("dom", KRONECKER_DOMS, ids=str)
def test_kronecker_path_at_its_edges(dom, monkeypatch):
    kron, engine = count_paths(monkeypatch)
    rng = random.Random(7100)
    zero, one, t = LaurentPoly.zero(dom), LaurentPoly.one(dom), LaurentPoly.t(dom)
    # a zero row and a zero column: zero, without packing
    for zero_row in (True, False):
        rows = [[LaurentPoly.from_terms(dom, {-1: _kronecker_coeff(rng, dom), 1: dom.one()})
                 if (i if zero_row else j) != 2 else zero for j in range(4)] for i in range(4)]
        assert det_poly_matrix(rows, dom).is_zero()
    assert kron == []
    # every leading minor singular: _det_int swaps a row in at each step
    a = [[t.shift(i - j) + one if i + j == 3 else zero for j in range(4)] for i in range(4)]
    for i in range(4):
        for j in range(4 - i, 4):
            a[i][j] = LaurentPoly.from_terms(dom, {-1: _kronecker_coeff(rng, dom)})
    assert det_poly_matrix(a, dom) == det_cofactor(a, dom) != zero
    # diagonals whose one coefficient is +-H = +-(2^(b-1) - 1), at the top zeta
    # slot n(phi - 1) over Q(zeta_m): the signed digits at both ends of their range
    top = dom.degree - 1 if isinstance(dom, CyclotomicField) else 0
    unit = dom.zeta(top) if isinstance(dom, CyclotomicField) else dom.one()
    factors = (3, 5) if isinstance(dom, PrimeField) else (3, 5, 17, 257)
    for signs in ((1, 1, 1, 1), (-1, 1, -1, -1)):
        coeffs = [dom.mul(dom.coerce(v if isinstance(dom, PrimeField) else s * v), unit)
                  for s, v in zip(signs, factors)]
        diag = [LaurentPoly.from_terms(dom, {e: c}) for e, c in enumerate(coeffs, -1)]
        rows = _diagonal(dom, diag)
        h = _height(rows, dom)
        assert h == prod(factors) == 2 ** (h.bit_length()) - 1
        want = one
        for f in diag:
            want = want * f
        assert det_poly_matrix(rows, dom) == want == det_cofactor(rows, dom)
    assert engine == [] and len(kron) == 3


def test_the_bits_constant_picks_the_path(monkeypatch):
    # a 21 x 21 diagonal of 1 + t and one c + t: H = 2^20 (c + 1), 22 points,
    # so n^2 * b * points is 441 * 27 * 22 = 261954 at c = 62, just under
    # _KRONECKER_BITS = 2^18, and 441 * 28 * 22 = 271656 at c = 63, just over
    kron, engine = count_paths(monkeypatch)
    one, t = LaurentPoly.one(ZZ), LaurentPoly.t(ZZ)
    for c, under in ((62, True), (63, False)):
        diag = [one + t] * 20 + [LaurentPoly.const(ZZ, c) + t]
        rows = _diagonal(ZZ, diag)
        b = _height(rows, ZZ).bit_length() + 1
        cost = 21 * 21 * b * 22
        assert cost == (261954 if under else 271656)
        assert (cost <= polydet._KRONECKER_BITS) == under
        want = one
        for f in diag:
            want = want * f
        assert det_poly_matrix(rows, ZZ) == want
        assert (kron, engine) == (([21], []) if under else ([], [21])), c
        del kron[:], engine[:]


def test_integer_determinants_build_no_fraction(monkeypatch):
    built = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    rng = random.Random(7200)
    F = GF(7)
    cases = [([[rand_zz(rng) for _ in range(6)] for _ in range(6)], ZZ),
             ([[LaurentPoly.from_terms(F, {e: rng.randrange(7) for e in range(-1, 2)})
                for _ in range(6)] for _ in range(6)], F)]
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    dets = [det_poly_matrix(rows, dom) for rows, dom in cases]
    monkeypatch.undo()
    assert built == []
    for d, (rows, dom) in zip(dets, cases):
        assert d == det_cofactor(rows, dom)


@pytest.mark.parametrize("q", [7, 101, 2**31 - 1])
def test_det_mod_q_against_the_integer_determinant(q):
    # sparse stacks: most matrices need row swaps, and many are singular mod q
    # (a zero column, or a last row that is a combination of the others mod q)
    rng = random.Random(q)
    for n in range(1, 7):
        stack = []
        for _ in range(60):
            a = [[rng.randrange(q) if rng.random() < 0.4 else 0 for _ in range(n)]
                 for _ in range(n)]
            kind = rng.randrange(3)
            if kind == 1 and n > 1:
                c = [rng.randrange(q) for _ in range(n - 1)]
                a[-1] = [sum(x * y for x, y in zip(c, col)) % q for col in zip(*a[:-1])]
            elif kind == 2:
                j = rng.randrange(n)
                for row in a:
                    row[j] = 0
            stack.append(a)
        want = [_det_int(a) % q for a in stack]
        got = polydet._det_mod_q(np.array(stack, dtype=np.int64), q)
        assert got.tolist() == want, (q, n)
        assert n == 1 or (0 in want and any(a[0][0] == 0 for a in stack))


@pytest.mark.parametrize("m", ENGINE_MS)
def test_multimodular_engine_degenerate_inputs(m, monkeypatch):
    dom = _engine_dom(m)
    rng = random.Random(5000 + m)
    zero, one = LaurentPoly.zero(dom), LaurentPoly.one(dom)
    t = LaurentPoly.t(dom)
    # a zero row: read off before either path
    rows = _rand_matrix(rng, dom, 3)
    rows[1] = [zero] * 3
    with monkeypatch.context() as spy:
        assert det_poly_matrix(rows, dom).is_zero()
        assert count_paths(spy) == ([], [])
    # an identically zero determinant: row 2 = c * t^-1 * row 0 + row 1
    rows = _rand_matrix(rng, dom, 4)
    c = LaurentPoly.from_terms(dom, {-1: dom.coerce(_rand_coeff(rng, dom))})
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
        h *= sum(abs(x) for f in row for _, v in f.terms() for x in _coords(dom, v))
    return h


def test_coordinate_bound_constants():
    ms = (1, 2, 3, 12, 20, 28, 76, 105, 131)
    assert [polydet._coordinate_bound(m) for m in ms] == [1, 1, 1, 1, 1, 1, 1, 2, 1]
    assert all(type(polydet._coordinate_bound(m)) is int for m in ms)


def test_coordinate_bound_matches_the_powers_of_x_mod_phi():
    # the second route: each x^k, k < m, divided by Phi_m over ZZ
    found = {}
    for m in range(1, 211):
        phi = cyclotomic_polynomial(m).coeffs()
        found[m] = max(abs(c) for k in range(m) for c in poly_divmod(ZZ, [0] * k + [1], phi)[1])
        assert polydet._coordinate_bound(m) == found[m], m
    assert {m for m, v in found.items() if v > 1} == {105, 165, 195, 210}


@pytest.mark.parametrize("m", ENGINE_MS)
def test_coordinate_bound_holds(m):
    # integer coordinates, no negative exponents: the det's coordinates are
    # bounded by M_m * H for the matrix itself
    dom = _engine_dom(m)
    rng = random.Random(6000 + m)
    mm = polydet._coordinate_bound(m)
    for n in (2, 3, 4):
        rows = _rand_matrix(rng, dom, n, span=(0, 2), cmax=5, fractional=False)
        d = det_cofactor(rows, dom)
        biggest = max((abs(x) for _, v in d.terms() for x in _coords(dom, v)), default=0)
        assert biggest <= mm * _row_norm_product(rows, dom), (m, n)


def _spy_primes(monkeypatch):
    """The primes the engine takes, in order, as one list."""
    used = []
    real = polydet._coords_mod_q
    monkeypatch.setattr(polydet, "_coords_mod_q",
                        lambda a, m, q, npoints: used.append(q) or real(a, m, q, npoints))
    return used


@pytest.mark.parametrize("m", [1, 12])
def test_large_coefficients_take_the_primes_the_bound_implies(m, monkeypatch):
    dom = ZZ if m == 1 else CYC(m)
    rng = random.Random(777 + m)
    big = 10**9
    rows = [[LaurentPoly.from_terms(dom, {e: (rng.randint(-big, big) if dom is ZZ else
                                              dom.coerce(tuple(Fraction(rng.randint(-big, big))
                                                               for _ in range(dom.degree))))
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
    used = _spy_primes(monkeypatch)
    d = engine_det(rows, dom)  # det_poly_matrix packs a 3 x 3
    assert expected >= 3
    assert len(used) == expected
    assert all(q_ % step == 1 for q_ in used)
    assert d == det_cofactor(rows, dom)


def test_crt_lifts_a_coordinate_above_half_the_first_prime():
    # H = 2^15 (2^15 + 1) = 2^30 + 2^15 lies between q/2 and q for the first
    # prime q = 2^31 - 1: stopping at mod > H would lift it to H - q; the
    # engine goes on to mod > 2H + 1
    a, b = 2**15, 2**15 + 1
    assert polydet._prime(1, 0) == 2**31 - 1
    rows = _diagonal(ZZ, [LaurentPoly.const(ZZ, a), LaurentPoly.const(ZZ, b)])
    assert engine_det(rows, ZZ) == LaurentPoly.const(ZZ, a * b)


def test_crt_takes_a_second_prime_past_twice_the_bound(monkeypatch):
    # over Q(zeta_12), M_12 = 1: diag(a zeta, b zeta^3) has H = ab = 2^30 + 2^15
    # between q/2 and q for the first prime q = 1 (mod 12), and its determinant
    # ab zeta^4 = ab (zeta^2 - 1) has coordinates +-ab; stopping at mod > H
    # would lift them to +-(ab - q), so the engine takes a second prime
    dom = CYC(12)
    a, b = 2**15, 2**15 + 1
    q = polydet._prime(12, 0)
    assert polydet._coordinate_bound(12) == 1 and q / 2 < a * b < q
    used = _spy_primes(monkeypatch)
    rows = _diagonal(dom, [LaurentPoly.from_terms(dom, {0: dom.scale(dom.zeta(k), y)})
                           for k, y in ((1, a), (3, b))])
    want = dom.scale(dom.zeta(4), a * b)
    assert engine_det(rows, dom) == LaurentPoly.from_terms(dom, {0: want})
    assert used == [q, polydet._prime(12, 1)]


def test_a_coordinate_of_two_takes_a_second_prime(monkeypatch):
    # M_105 = 2: zeta^48 has a coordinate 2, so the determinant y zeta^48 of
    # diag(zeta^47, y zeta) has a coordinate 2y, with H = y.  For y in
    # (q/4, q/2), q the first prime = 1 (mod 210), 2y passes q/2: the bound
    # 2y needs mod > 4y + 1 > q, a second prime; M = 1 would stop at q and
    # lift 2y to 2y - q
    dom = CYC(105)
    q = polydet._prime(105, 0)
    y = q // 4 + 1
    assert q % 210 == 1 and q / 4 < y < q / 2
    assert polydet._coordinate_bound(105) == 2
    want = dom.scale(dom.zeta(48), y)
    assert max(abs(x) for x in dom.coords(want)) == 2 * y
    used = _spy_primes(monkeypatch)
    rows = _diagonal(dom, [LaurentPoly.from_terms(dom, {0: dom.zeta(47)}),
                           LaurentPoly.from_terms(dom, {0: dom.scale(dom.zeta(1), y)})])
    assert engine_det(rows, dom) == LaurentPoly.from_terms(dom, {0: want})
    assert used == [q, polydet._prime(105, 1)]


@pytest.mark.parametrize("dom", [QQ, CYC(3), CYC(12), GF(5), ZZ], ids=str)
def test_dense_det_matches_cofactor(dom):
    rng = random.Random(31)

    def entry():
        if dom is ZZ:
            return rng.randint(-4, 4)
        if dom is QQ or isinstance(dom, CyclotomicField):
            return dom.coerce(_rand_coeff(rng, dom))
        return rng.randint(0, dom.p - 1)

    for n in range(6):
        a = [tuple(entry() for _ in range(n)) for _ in range(n)]
        want = det_cofactor([[LaurentPoly.from_terms(dom, {0: x}) for x in row] for row in a], dom)
        assert dom.eq(det_matrix(a, dom), want[0]), (dom, n)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 12, 15, 28, 101, 105, 128, 211])
def test_vandermonde_inverse_by_synthetic_division(m):
    # V^-1 is read off Phi_m / ((x - x_e) Phi_m'(x_e)) column by column; check
    # V V^-1 = V^-1 V = I mod q for the first two primes the engine uses
    for i in range(2):
        q = polydet._prime(m, i)
        v, vinv = polydet._embeddings(m, q)  # each split into 16-bit halves
        assert v.max() < 1 << 16 and vinv.max() < 1 << 16
        eye = np.eye(v.shape[-1], dtype=np.int64)
        assert v.shape == vinv.shape == (2, *eye.shape)
        assert (polydet._mul_mod(v, vinv[0] + (vinv[1] << 16), q) == eye).all(), (m, q)
        assert (polydet._mul_mod(vinv, v[0] + (v[1] << 16), q) == eye).all(), (m, q)


def test_mul_mod_sums_stay_inside_int64():
    # each sum in _mul_mod has at most max(_TABLE_POINTS, PHI_CAP) products of a
    # 16-bit half and a residue below 2^31: a cap of 2^16 or more would let
    # the int64 sums overflow without an error
    assert polydet._prime(1, 0) < 2**31
    assert max(polydet._TABLE_POINTS, PHI_CAP) * 2**47 < 2**63


# ------------------------------------- the degree bound by rows and columns

def _points_evaluated(monkeypatch, rows, dom):
    seen = []
    real = polydet._coords_mod_q
    monkeypatch.setattr(polydet, "_coords_mod_q",
                        lambda a, m, q, npoints: seen.append(npoints) or real(a, m, q, npoints))
    d = engine_det(rows, dom)
    monkeypatch.setattr(polydet, "_coords_mod_q", real)
    assert len(set(seen)) == 1
    return seen[0], d


def test_columns_bound_the_degree_too(monkeypatch):
    # entry (i, j) = a_ij t^u_j + b_ij t^(u_j + w_j): every row spans the
    # offsets u, but once rows and then columns are cleared column j spans
    # w_j and each row max(w), so sum(w) + 1 = 4 points fix the determinant
    rng = random.Random(2500)
    n, u, w = 5, (3, -2, 7, 0, 5), (0, 0, 1, 0, 2)
    rows = [[LaurentPoly.from_terms(ZZ, {u[j]: rng.choice([-2, -1, 1, 2]),
                                         u[j] + w[j]: rng.randint(1, 3)})
             for j in range(n)] for _ in range(n)]
    row_spans = sum(max(f.deg() for f in row) - min(f.low() for f in row) for row in rows)
    assert row_spans == n * (max(map(sum, zip(u, w))) - min(u)) == 50
    want = det_cofactor(rows, ZZ)
    assert not want.is_zero()
    for a in (rows, [list(col) for col in zip(*rows)]):  # rows bound it on the transpose
        points, d = _points_evaluated(monkeypatch, a, ZZ)
        assert points == sum(w) + 1
        assert d == want


@pytest.mark.parametrize("dom", [ZZ, QQ, GF(7), CYC(5), CYC(12)], ids=str)
def test_column_skewed_exponents_against_cofactors(dom, monkeypatch):
    rng = random.Random(2600 + (dom.m if isinstance(dom, CyclotomicField) else 0))

    def coeff():
        if dom is ZZ:
            return rng.randint(-3, 3)
        if isinstance(dom, CyclotomicField) or dom is QQ:
            return _rand_coeff(rng, dom)
        return rng.randrange(dom.p)

    for n in (4, 5):
        for _ in range(3):
            offsets = [rng.randint(-4, 4) for _ in range(n)]
            rows = [[LaurentPoly.from_terms(dom, {e + offsets[j]: dom.coerce(coeff())
                                                  for e in range(-1, 2) if rng.random() < 0.7})
                     for j in range(n)] for _ in range(n)]
            want = det_cofactor(rows, dom)
            points, got = _points_evaluated(monkeypatch, rows, dom)
            assert got == want, (dom, n)
            assert want.is_zero() or want.deg() - want.low() < points
    # a zero column: read off before either path
    rows = [[LaurentPoly.from_terms(dom, {-2: dom.coerce(coeff()), 1: dom.one()}) if j != 2
             else LaurentPoly.zero(dom) for j in range(4)] for _ in range(4)]
    kron, engine = count_paths(monkeypatch)
    assert det_poly_matrix(rows, dom).is_zero()
    assert (kron, engine) == ([], [])


# ------------------------------------------------- the Newton tables

@pytest.mark.parametrize("q", [1009, 2**31 - 1])  # above the points: 1..k-1 are units
def test_newton_tables_match_newton(q, monkeypatch):
    monkeypatch.setattr(polydet, "_newton_tables", {})
    rng = random.Random(q)
    for k in (1, 2, 3, 128, 256, 257):
        ys = np.array([[rng.randrange(q) for _ in range(3)] for _ in range(k - 1)]
                      + [[q - 1] * 3], dtype=np.int64)  # the largest residue, too
        got = polydet._interpolate(ys, q)
        assert (got == polydet._power_basis(polydet._divided_differences(ys, q), q)).all(), k
        # and the coefficients take the values: Horner at x = 0..k-1
        for c in range(3):
            coeffs = got[:, c].tolist()
            for x in range(k):
                acc = 0
                for a in reversed(coeffs):
                    acc = (acc * x + a) % q
                assert acc == ys[x, c], (k, x, c)
        # the tables grow to the next power of two, never past _TABLE_POINTS
        side = polydet._newton_tables[q].shape[-1]
        assert side == min(1 << (k - 1).bit_length(), 256) >= min(k, 256)
    assert polydet._TABLE_POINTS == 256
    assert polydet._newton_tables[q].shape == (2, 2, 256, 256)  # (D, T), each lo and hi
    # the engine's own calls leave every prime's tables within the same size
    rng = random.Random(7)
    engine_det([[rand_zz(rng) for _ in range(5)] for _ in range(5)], ZZ)
    assert all(t.shape[-1] <= 256 for t in polydet._newton_tables.values())


# ------------------------------------------------- the sparse clearing

@pytest.mark.parametrize("dom", [ZZ, QQ, GF(7), CYC(5), CYC(12)], ids=str)
def test_sparse_clearing_edge_cases(dom):
    t, one, z = (LaurentPoly.from_terms(dom, {e: dom.one()}) for e in (1, 0, -3))
    zero = LaurentPoly.zero(dom)
    two = LaurentPoly(dom, [dom.coerce(2), dom.zero(), dom.neg(dom.one())], -1)
    # side 0 is 1; side 1 is its one cell, zeros and all
    assert polydet.det_sparse([], dom) == one == det_poly_matrix([], dom)
    for f in (two, z, zero):
        assert polydet.det_sparse(sparse_rows([[f]]), dom) == f == det_poly_matrix([[f]], dom)
    # an empty row, and a column that no row reaches: both read off as zero
    for rows in ([[t, two, z], [zero, zero, zero], [one, t, two]],
                 [[t, zero, z], [two, zero, one], [one, zero, t]]):
        assert_clears_as_reference(sparse_rows(rows), rows, dom)
        assert polydet._cleared(sparse_rows(rows), dom) is None
        assert polydet.det_sparse(sparse_rows(rows), dom).is_zero()
    rows = [[t, two, z], [z, zero, one], [one, t, two]]
    assert_clears_as_reference(sparse_rows(rows), rows, dom)


def test_sparse_clearing_refuses_above_the_work_cap_with_the_same_text():
    # side 50 with one cell 1 + t^1000: 50^3 * 1001 points is above 10^8,
    # refused from the exponents alone, before any term is built
    n = 50
    rows = [[LaurentPoly.from_terms(ZZ, {0: 1, 1000: 1} if i == j == 0 else {0: 1} if i == j
                                    else {}) for j in range(n)] for i in range(n)]
    with pytest.raises(TwistalexError) as want:
        cleared_reference(rows, ZZ)
    with pytest.raises(TwistalexError) as got:
        polydet._cleared(sparse_rows(rows), ZZ)
    assert str(got.value) == str(want.value) == (
        "determinant work side^3 * points * phi = 50^3 * 1001 * 1 = 125125000 is above the "
        "cap _WORK_CAP = 100000000")
    with pytest.raises(TwistalexError, match="_WORK_CAP"):
        det_poly_matrix(rows, ZZ)
