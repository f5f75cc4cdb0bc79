"""`CyclotomicField` against the field it replaced.

`_ReferenceCyclotomicField` is the Q(zeta_m) whose elements were tuples of
deg(Phi_m) Fractions, kept verbatim (the class name aside) as an oracle, the
same way `test_poly_kernel` keeps `_reference_cyclo_inv`.  Elements are drawn
in its coordinate format, mapped into the field by `coerce` and read back by
`coords`; every operation must give the reference's coordinates, `to_str` its
text and `sort_key` its order.
"""
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalex import domains
from twistalex.cyclo import CYC, cyclotomic_polynomial
from twistalex.domains import Domain
from twistalex.laurent import poly_invmod, poly_trim


# ------------------------------------------------------------------ oracle

def _integral(a):
    """(nonzero (index, integer numerator) pairs, denominator) of a coordinate
    tuple: a = numerators / denominator."""
    ratios = [(i, x.as_integer_ratio()) for i, x in enumerate(a) if x]
    den = lcm(*[q for _, (_, q) in ratios])
    if den == 1:
        return [(i, p) for i, (p, _) in ratios], 1
    return [(i, p * (den // q)) for i, (p, q) in ratios], den


_ZERO = Fraction(0)


class _ReferenceCyclotomicField(Domain):
    """Q(zeta_m); elements are coordinate tuples in the power basis mod Phi_m."""

    is_field = True

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = m
        self.name = f"Q(zeta_{m})"
        phi = cyclotomic_polynomial(m)
        self.degree = phi.deg()
        coeffs = phi.coeffs()
        self._phi = [Fraction(v) for v in coeffs]
        # reduction table: x^(deg+j) in the power basis.  Phi_m is monic, so
        # the entries are integers; each row keeps its nonzero (i, c) pairs.
        d = self.degree
        base = [-v for v in coeffs[:d]]
        cur = base
        self._red: list[tuple[tuple[int, int], ...]] = []
        for _ in range(d):
            self._red.append(tuple((i, c) for i, c in enumerate(cur) if c))
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [c + top * b for c, b in zip(cur, base)]
        # powers of zeta_m in the basis, for fast root-of-unity access
        self._zeta_pows: list[tuple[Fraction, ...]] = []
        z = self._monomial(1)
        w = self.one()
        for _ in range(m):
            self._zeta_pows.append(w)
            w = self.mul(w, z)
        # ±zeta^k -> ±zeta^-k: at most 2m entries, fixed once built
        self._unit_inv = {}
        for k, w in enumerate(self._zeta_pows):
            w_inv = self._zeta_pows[-k % m]
            self._unit_inv[w] = w_inv
            self._unit_inv[self.neg(w)] = self.neg(w_inv)

    def _monomial(self, k: int):
        v = [Fraction(0)] * self.degree
        if k < self.degree:
            v[k] = Fraction(1)
        else:
            for i, c in self._red[k - self.degree]:
                v[i] = Fraction(c)
        return tuple(v)

    # ------------------------------------------------------------- domain API
    def zero(self):
        return (Fraction(0),) * self.degree

    def one(self):
        v = [Fraction(0)] * self.degree
        v[0] = Fraction(1)
        return tuple(v)

    def coerce(self, x):
        if isinstance(x, tuple) and len(x) == self.degree:
            return tuple(Fraction(v) for v in x)
        if isinstance(x, (int, Fraction)):
            return self.from_rational(Fraction(x))
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def from_rational(self, q: Fraction):
        v = [Fraction(0)] * self.degree
        v[0] = Fraction(q)
        return tuple(v)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        return self.dot((a,), (b,))

    def dot(self, xs, ys):
        """sum_k xs[k] * ys[k] on integer numerators (`_integral_dot`)."""
        return self._integral_dot(zip(map(_integral, xs), map(_integral, ys)))

    def mat_mul(self, a, b):
        """a b with every entry of a and b converted to integer numerators
        once: 2 n^2 conversions for an n x n product, not one per use."""
        rows = [[(k, f) for k, f in enumerate(map(_integral, row)) if f[0]] for row in a]
        cols = [tuple(map(_integral, col)) for col in zip(*b)]
        return tuple(tuple(self._integral_dot([(f, col[k]) for k, f in row]) for col in cols)
                     for row in rows)

    def _integral_dot(self, pairs):
        """sum a * b over the pairs (a, b) of `_integral` forms.

        The products are convolved into one integer accumulator over the
        running common denominator of all products, reduced once mod Phi_m,
        and turned into Fractions once per output coordinate.
        """
        d = self.degree
        acc = [0] * (2 * d - 1)
        den = 1
        for (an, ad), (bn, bd) in pairs:
            if not an or not bn:
                continue
            e = ad * bd
            if den % e:
                grown = lcm(den, e)
                f = grown // den
                acc = [c * f for c in acc]
                den = grown
            s = den // e
            for i, x in an:
                x *= s
                for j, y in bn:
                    acc[i + j] += x * y
        out = acc[:d]
        for row, c in zip(self._red, acc[d:]):
            if c:
                for i, r in row:
                    out[i] += c * r
        if den == 1:
            return tuple(Fraction(c) if c else _ZERO for c in out)
        return tuple(Fraction(c, den) if c else _ZERO for c in out)

    def is_zero(self, a):
        return all(not x for x in a)

    def eq(self, a, b):
        return all(x == y for x, y in zip(a, b))

    def inv(self, a):
        """a^-1: a root of unity ±zeta^k from the table, anything else by
        the polynomial kernel, a^-1 mod Phi_m over QQ."""
        unit = self._unit_inv.get(a)
        if unit is not None:
            return unit
        if self.is_zero(a):
            raise ZeroDivisionError(f"division by zero in {self.name}")
        s = poly_invmod(domains.QQ, poly_trim(domains.QQ, list(a)), self._phi)
        return tuple(s + [_ZERO] * (self.degree - len(s)))

    def scale(self, a, q: Fraction):
        return tuple(x * q for x in a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # ------------------------------------------------------------- utilities
    def zeta(self, k: int = 1):
        """zeta_m^k as an element."""
        return self._zeta_pows[k % self.m]

    def is_rational(self, a) -> bool:
        return all(not x for x in a[1:])

    def rational_value(self, a) -> Fraction:
        if not self.is_rational(a):
            raise ValueError(f"{self.to_str(a)} is not rational")
        return a[0]

    def embed(self, a, src: "CyclotomicField"):
        """Embed an element of Q(zeta_src) along zeta_src -> zeta_m^(m/src)."""
        if self.m % src.m:
            raise ValueError(f"no embedding {src.name} -> {self.name}")
        step = self.m // src.m
        acc = self.zero()
        for k, v in enumerate(a):
            if v:
                acc = self.add(acc, self.scale(self.zeta(step * k), v))
        return acc

    def to_str(self, a) -> str:
        if self.is_rational(a):
            return str(a[0])
        parts = []
        for k, v in enumerate(a):
            if not v:
                continue
            if k == 0:
                parts.append(str(v))
            else:
                zp = f"z{self.m}" if k == 1 else f"z{self.m}^{k}"
                parts.append(zp if v == 1 else ("-" + zp if v == -1 else f"{v}*{zp}"))
        return "(" + " + ".join(parts).replace("+ -", "- ") + ")"

    def sort_key(self, a):
        return tuple(a)


# -------------------------------------------------------------- comparison

# 105: Phi_105 has a coefficient -2, so its reduction rows carry entries of
# size 2, and phi = 48 puts index sums far past phi
MS = [1, 2, 3, 4, 5, 9, 12, 15, 20, 28, 105]
REF = {d: _ReferenceCyclotomicField(d) for m in MS for d in range(1, m + 1) if m % d == 0}


def elements(R):
    """Reference elements: zero, ±zeta^k and coordinate tuples with denominators."""
    roots = st.integers(0, R.m - 1).map(R.zeta)
    coords = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                      min_size=R.degree, max_size=R.degree).map(tuple)
    return st.one_of(st.just(R.zero()), roots, roots.map(R.neg), coords)


def one_pair_elements(R):
    """c zeta^k / d with k below phi, where it is one pair, and at or above
    phi, where it is reduced mod Phi_m."""
    ks = st.integers(0, R.degree - 1)
    if R.m > R.degree:
        ks = st.one_of(ks, st.integers(R.degree, R.m - 1))
    scales = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)
    return st.builds(lambda k, q: R.scale(R.zeta(k), q), ks, scales)


def _coords(F, matrix):
    return tuple(tuple(F.coords(v) for v in row) for row in matrix)


@pytest.mark.parametrize("m", MS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_arithmetic_matches_the_reference(m, data):
    F, R = CYC(m), REF[m]
    a, b = data.draw(elements(R)), data.draw(elements(R))
    q = data.draw(st.fractions(min_value=-9, max_value=9, max_denominator=12))
    x, y = F.coerce(a), F.coerce(b)
    assert F.coords(x) == a and F.coords(y) == b
    assert F.coords(F.add(x, y)) == R.add(a, b)
    assert F.coords(F.sub(x, y)) == R.sub(a, b)
    assert F.coords(F.neg(x)) == R.neg(a)
    assert F.coords(F.mul(x, y)) == R.mul(a, b)
    assert F.coords(F.mul(x, F.from_rational(q))) == R.scale(a, q)
    # at m = 105 the reference inverts a general element by `poly_invmod`
    # over QQ, seconds per element at phi = 48, so only the rational and
    # root-of-unity paths are compared there (test_cyclo checks the norm
    # inverse at m = 105 and 131 by a * a^-1 = 1)
    if not R.is_zero(a) and (m != 105 or R.is_rational(a) or a in R._unit_inv):
        assert F.coords(F.inv(x)) == R.inv(a)
    assert F.to_str(x) == R.to_str(a)
    assert (F.is_zero(x), F.is_rational(x), F.eq(x, y)) == \
        (R.is_zero(a), R.is_rational(a), R.eq(a, b))
    kx, ky, ka, kb = F.sort_key(x), F.sort_key(y), R.sort_key(a), R.sort_key(b)
    assert (kx < ky, kx == ky, kx > ky) == (ka < kb, ka == kb, ka > kb)
    assert hash(kx) == hash(ka)


@pytest.mark.parametrize("m", MS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_dot_and_matrix_product_match_the_reference(m, data):
    F, R = CYC(m), REF[m]
    k = data.draw(st.integers(0, 5))
    xs, ys = (data.draw(st.lists(elements(R), min_size=k, max_size=k)) for _ in range(2))
    assert F.coords(F.dot([F.coerce(v) for v in xs], [F.coerce(v) for v in ys])) == \
        R.dot(xs, ys)
    rows, inner, cols = (data.draw(st.integers(1, 3)) for _ in range(3))
    a = tuple(tuple(data.draw(elements(R)) for _ in range(inner)) for _ in range(rows))
    b = tuple(tuple(data.draw(elements(R)) for _ in range(cols)) for _ in range(inner))
    coerced = [tuple(tuple(map(F.coerce, row)) for row in mat) for mat in (a, b)]
    assert _coords(F, F.mat_mul(*coerced)) == R.mat_mul(a, b)


@pytest.mark.parametrize("m", MS)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_embedding_matches_the_reference(m, data):
    d = data.draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    a = data.draw(elements(REF[d]))
    assert CYC(m).coords(CYC(m).embed(CYC(d).coerce(a), CYC(d))) == \
        REF[m].embed(a, REF[d])


@pytest.mark.parametrize("m", MS)
def test_reduction_table_matches_the_reference(m):
    # the field builds its rows by folding x times the row before; the
    # reference by its own shift-and-add recurrence
    assert CYC(m)._red == REF[m]._red


@pytest.mark.parametrize("m", MS)
def test_every_power_of_zeta_matches_the_reference(m):
    F, R = CYC(m), REF[m]
    for k in range(-m, 2 * m):
        assert F.coords(F.zeta(k)) == R.zeta(k), k


@pytest.mark.parametrize("m", MS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_pair_products_match_the_reference(m, data):
    """Products of one-pair operands, whose index sum is below phi (one pair
    and one gcd) or not (the accumulator), in the field's one lowest-terms
    form; and their dots, over denominators the accumulator must rescale."""
    F, R = CYC(m), REF[m]
    a, b = (data.draw(st.one_of(one_pair_elements(R), elements(R))) for _ in range(2))
    assert F.mul(F.coerce(a), F.coerce(b)) == F.coerce(R.mul(a, b))
    k = data.draw(st.integers(1, 4))
    xs, ys = (data.draw(st.lists(one_pair_elements(R), min_size=k, max_size=k))
              for _ in range(2))
    assert F.dot([F.coerce(v) for v in xs], [F.coerce(v) for v in ys]) == \
        F.coerce(R.dot(xs, ys))
