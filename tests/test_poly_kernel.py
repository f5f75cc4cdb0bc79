"""The dense polynomial kernel of `laurent` against the routines it replaced.

`_reference_cyclo_inv` is the extended Euclid that `CyclotomicField.inv` ran
on its own, and the `_reference_p*`/`_reference_z*` helpers are the F_p[x]
and Z[x] arithmetic `factorint` carried; both are kept verbatim (names and
the modulus argument aside) as oracles, the same way `test_snf` keeps
`_reference_smith_normal_form`.  `_reference_laurent_mul` is the dict
convolution `LaurentPoly.__mul__` ran before it moved onto `poly_mul`.
"""
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalex.cyclo import CYC, cyclotomic_polynomial
from twistalex.domains import GF, QQ, ZZ, ExactDivisionError
from twistalex.factorint import _berlekamp, factor_integer_poly
from twistalex.laurent import (LaurentPoly, parse_poly, poly_divmod, poly_gcd, poly_invmod,
                               poly_mul, poly_trim)

PRIMES = (2, 3, 5, 7)


# ------------------------------------------------------------------ oracles

def _reference_cyclo_inv(phi, a, degree):
    """Inverse via the extended Euclidean algorithm in Q[x] mod phi."""
    # work with plain coefficient lists
    r0 = list(phi)
    r1 = list(a)
    while r1 and not r1[-1]:
        r1.pop()
    s0, s1 = [Fraction(0)], [Fraction(1)]

    def polydivmod(num, den):
        num = list(num)
        q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
        for i in range(len(num) - len(den), -1, -1):
            if num[i + len(den) - 1]:
                f = num[i + len(den) - 1] / den[-1]
                q[i] = f
                for j, dv in enumerate(den):
                    num[i + j] -= f * dv
        while num and not num[-1]:
            num.pop()
        return q, num

    while r1:
        q, r = polydivmod(r0, r1)
        # s_next = s0 - q*s1
        s2 = list(s0) + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qv in enumerate(q):
            if qv:
                for j, sv in enumerate(s1):
                    s2[i + j] -= qv * sv
        r0, r1, s0, s1 = r1, r, s1, s2
    # r0 = gcd (a nonzero constant since Phi_m is irreducible)
    if len(r0) != 1:
        raise ArithmeticError("gcd with Phi_m not constant; element not invertible")
    c = r0[0]
    # every quotient has degree >= 1, so deg s0 < deg Phi_m
    return tuple([v / c for v in s0] + [Fraction(0)] * (degree - len(s0)))


def _reference_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _reference_pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = (out[i + j] + x * y) % p
    return _reference_trim(out)


def _reference_pdivmod(a, b, p):
    a = [x % p for x in a]
    b = [x % p for x in b]
    _reference_trim(a)
    _reference_trim(b)
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], a
    inv = pow(b[-1], -1, p)
    q = [0] * (len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        c = a[i + db] % p
        if c:
            f = c * inv % p
            q[i] = f
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - f * y) % p
    return q, _reference_trim(a)


def _reference_pgcd(a, b, p):
    a, b = _reference_trim([x % p for x in a]), _reference_trim([x % p for x in b])
    while b:
        _, r = _reference_pdivmod(a, b, p)
        a, b = b, r
    if a:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a


def _reference_pext_inverse(a, mod, p):
    """Inverse of a modulo mod in F_p[x] (they must be coprime)."""
    r0, r1 = _reference_trim([x % p for x in mod]), _reference_trim([x % p for x in a])
    s0, s1 = [], [1]
    while r1:
        q, r = _reference_pdivmod(r0, r1, p)
        qs1 = _reference_pmul(q, s1, p)
        s2 = [((s0[i] if i < len(s0) else 0) - (qs1[i] if i < len(qs1) else 0)) % p
              for i in range(max(len(s0), len(qs1)))]
        r0, r1 = r1, r
        s0, s1 = s1, _reference_trim(s2)
    if len(r0) != 1:
        raise ArithmeticError("polynomials not coprime mod p")
    c = pow(r0[0], -1, p)
    return _reference_trim([x * c % p for x in s0])


def _reference_zmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _reference_trim(out)


def _reference_zdivexact(a, b):
    """Exact division in Z[x]; returns None when not exact."""
    a = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return None
    q = [0] * (len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        c = a[i + db]
        if c % b[-1]:
            return None
        f = c // b[-1]
        q[i] = f
        if f:
            for j, y in enumerate(b):
                a[i + j] -= f * y
    return q if not _reference_trim(a) else None


def _reference_qq_gcd(a, b):
    """Monic Euclid over Q on the reference division of `_reference_cyclo_inv`."""
    while b:
        num = list(a)
        for i in range(len(num) - len(b), -1, -1):
            if num[i + len(b) - 1]:
                f = num[i + len(b) - 1] / b[-1]
                for j, dv in enumerate(b):
                    num[i + j] -= f * dv
        a, b = b, _reference_trim(num)
    return [v / a[-1] for v in a] if a else []


def _reference_laurent_mul(self, other):
    """The dict convolution of the two polynomials' nonzero terms."""
    d = self.dom
    c: dict = {}
    for e1, v1 in self.terms():
        for e2, v2 in other.terms():
            e = e1 + e2
            w = d.mul(v1, v2)
            if e in c:
                w = d.add(c[e], w)
                if d.is_zero(w):
                    del c[e]
                    continue
            elif d.is_zero(w):
                continue
            c[e] = w
    return LaurentPoly.from_terms(d, c)


# --------------------------------------------------------------- strategies

def trimmed(elements, max_size=8):
    return st.lists(elements, max_size=max_size).map(lambda a: _reference_trim(list(a)))


ints = trimmed(st.integers(-9, 9))
nonzero_ints = ints.filter(bool)
# QQ elements in both forms: ints and Fractions (integral ones among them)
qq_elements = st.one_of(st.integers(-9, 9),
                        st.fractions(min_value=-9, max_value=9, max_denominator=6))
rationals = trimmed(qq_elements, 6)
nonzero_rationals = rationals.filter(bool)


def mod_p(p, max_size=8):
    return trimmed(st.integers(0, p - 1), max_size)


# ------------------------------------------------------------------ F_p[x]

@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_divmod_gcd_and_inverse_over_gf_p(p, data):
    F = GF(p)
    a = data.draw(mod_p(p))
    b = data.draw(mod_p(p).filter(bool))
    assert poly_mul(F, a, b) == _reference_pmul(a, b, p)
    assert list(poly_divmod(F, a, b)) == list(_reference_pdivmod(a, b, p))
    assert poly_gcd(F, a, b) == _reference_pgcd(a, b, p)
    if len(b) == 1:  # modulo a unit every residue is 0
        return
    try:
        want = _reference_pext_inverse(a, b, p)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            poly_invmod(F, a, b)
    else:
        assert poly_invmod(F, a, b) == want


def test_the_factor_x_is_kept_mod_p():
    # f = (t + 3)(t + 1) is t (t + 1) mod 3, and 3 is its smallest good prime
    F = GF(3)
    assert poly_gcd(F, [0, 1, 1], [0, 2, 1]) == _reference_pgcd([0, 1, 1], [0, 2, 1], 3) == [0, 1]
    assert poly_divmod(F, [0, 1, 1], [0, 1]) == ([1, 1], [])
    assert sorted(_berlekamp([0, 1, 1], 3)) == [[0, 1], [1, 1]]
    _, _, _, factors = factor_integer_poly(parse_poly("3 + 4*t + t^2"))
    assert [(g.to_text(), m) for g, m in factors] == [("1 + t", 1), ("3 + t", 1)]


# -------------------------------------------------------------------- Z[x]

@settings(max_examples=300, deadline=None, derandomize=True)
@given(ints, nonzero_ints, nonzero_ints)
def test_exact_and_inexact_division_over_zz(a, b, c):
    prod = poly_mul(ZZ, a, b)
    assert prod == _reference_zmul(a, b)
    # a*b is exact; a*b + c is inexact unless b happens to divide c
    for num in (prod, poly_trim(ZZ, [x + y for x, y in zip_longest(prod, c, fillvalue=0)])):
        if not num:  # the reference calls 0 / b inexact; factorint never divides 0
            assert poly_divmod(ZZ, num, b) == ([], [])
            continue
        want = _reference_zdivexact(num, b)
        try:
            q, r = poly_divmod(ZZ, num, b)
        except ExactDivisionError:  # a quotient coefficient is no integer
            assert want is None
        else:
            assert (None if r else q) == want


# -------------------------------------------------------------------- Q[x]

def test_qq_sources_return_ints_for_integral_values():
    # an integral value leaves zero, one, coerce, div and inv as an int, and
    # a non-integral quotient as the exact Fraction, never a floor quotient
    integral = (QQ.zero(), QQ.one(), QQ.coerce(Fraction(6, 3)), QQ.div(6, -3), QQ.inv(-1),
                QQ.div(Fraction(3, 2), Fraction(1, 2)))
    assert integral == (0, 1, 2, -2, -1, 3)
    assert all(type(v) is int for v in integral)
    for got, want in ((QQ.div(-7, 2), Fraction(-7, 2)), (QQ.div(Fraction(1, 2), 3), Fraction(1, 6)),
                      (QQ.inv(2), Fraction(1, 2))):
        assert type(got) is Fraction and got == want
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rationals, nonzero_rationals)
def test_divmod_gcd_and_inverse_over_qq(a, b):
    q, r = poly_divmod(QQ, a, b)
    assert len(r) < len(b)
    qb = poly_mul(QQ, q, b)
    assert poly_trim(QQ, [x - y - z for x, y, z in zip_longest(a, qb, r, fillvalue=0)]) == []
    fa, fb = [Fraction(x) for x in a], [Fraction(x) for x in b]  # the references divide by /
    assert poly_gcd(QQ, a, b) == _reference_qq_gcd(fa, fb)
    if len(a) < len(b) and len(b) > 1:
        try:
            want = _reference_cyclo_inv(fb, fa, len(b) - 1)
        except ArithmeticError:
            with pytest.raises(ArithmeticError):
                poly_invmod(QQ, a, b)
        else:
            got = poly_invmod(QQ, a, b)
            assert tuple(got + [0] * (len(b) - 1 - len(got))) == want


@pytest.mark.parametrize("m", range(1, 31))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_cyclotomic_inverse_matches_the_reference(m, data):
    K = CYC(m)
    a = tuple(data.draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                                 min_size=K.degree, max_size=K.degree)))
    x = K.coerce(a)
    if K.is_zero(x):
        return
    inv = K.inv(x)
    assert K.coords(inv) == _reference_cyclo_inv(cyclotomic_polynomial(m).coeffs(), a, K.degree)
    assert K.eq(K.mul(x, inv), K.one())


# ------------------------------------------------------ LaurentPoly products

LAURENT_DOMAINS = {
    "ZZ": (ZZ, st.integers(-9, 9)),
    "QQ": (QQ, qq_elements),
    "GF(5)": (GF(5), st.integers(0, 4)),
    "GF(7)": (GF(7), st.integers(0, 6)),
    **{f"Q(zeta_{m})": (CYC(m), st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        min_size=CYC(m).degree, max_size=CYC(m).degree).map(tuple).map(CYC(m).coerce))
       for m in (3, 4, 5, 12)},
}


def laurent_polys(dom, coeffs):
    """Sparse maps over exponents -6..6: zero, monomials and wider sums."""
    return st.dictionaries(st.integers(-6, 6), coeffs, max_size=6).map(
        lambda c: LaurentPoly.from_terms(dom, c))


@pytest.mark.parametrize("name", LAURENT_DOMAINS)
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_laurent_product_matches_the_dict_convolution(name, data):
    dom, coeffs = LAURENT_DOMAINS[name]
    a = data.draw(laurent_polys(dom, coeffs))
    b = data.draw(laurent_polys(dom, coeffs))
    fixed = (LaurentPoly.zero(dom), LaurentPoly.one(dom), LaurentPoly.t(dom, -3))
    for x, y in [(a, b), (b, a)] + [(a, f) for f in fixed] + [(f, a) for f in fixed]:
        got, want = x * y, _reference_laurent_mul(x, y)
        assert list(got.terms()) == list(want.terms()), (x, y)
        assert got.dom is dom
