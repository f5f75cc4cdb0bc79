"""Cyclotomic fields Q(zeta_m) with exact power-basis arithmetic.

Elements are tuples of Fractions of length deg(Phi_m), the coordinates in the
basis 1, x, ..., x^(deg-1) modulo the m-th cyclotomic polynomial.  Roots of
unity never degrade to floats anywhere in this package.

Products run on integer numerators in two steps: `_integral` scales an
operand to integer coordinates over one denominator, and `_integral_dot`
convolves a sum of such products over one common denominator, reduces once
with the integer table of Phi_m (monic, so the table is integral) and builds
one Fraction per output coordinate.  Each kernel call converts each operand
once: `dot` (and `mul`, a one-term `dot`) its factors, `mat_mul` every entry
of both matrices, so an n x n product makes 2 n^2 conversions, not 2 n^3.
Inverses of the roots of unity ±zeta^k are read from a table built with the
field (±zeta^k -> ±zeta^-k); any other element is inverted by the polynomial
kernel (`laurent.poly_invmod`) modulo Phi_m over QQ.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .domains import Domain
from .laurent import LaurentPoly, poly_invmod, poly_trim
from . import domains


def _euler_phi(n: int) -> int:
    out, k = n, n
    p = 2
    while p * p <= k:
        if k % p == 0:
            while k % p == 0:
                k //= p
            out -= out // p
        p += 1
    if k > 1:
        out -= out // k
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> LaurentPoly:
    """The n-th cyclotomic polynomial as a monic integer polynomial.

    Computed by dividing t^n - 1 by all Phi_d with d | n, d < n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    f = LaurentPoly(domains.ZZ, {n: 1, 0: -1})
    for d in range(1, n):
        if n % d == 0:
            f = f.exact_div(cyclotomic_polynomial(d))
    return f


def multiplicative_order(a: int, n: int) -> int:
    if n == 1:
        return 1
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    k, x = 1, a % n
    while x != 1:
        x = x * a % n
        k += 1
    return k


def is_cyclotomic_irreducible_mod_p(n: int, p: int) -> bool:
    """True iff Phi_n is irreducible over F_p; equivalent to ord_n(p) = phi(n)."""
    if gcd(n, p) != 1:
        raise ValueError(f"gcd({n},{p}) != 1")
    if n == 1:
        return True
    return multiplicative_order(p, n) == _euler_phi(n)


def _integral(a):
    """(nonzero (index, integer numerator) pairs, denominator) of a coordinate
    tuple: a = numerators / denominator."""
    ratios = [(i, x.as_integer_ratio()) for i, x in enumerate(a) if x]
    den = lcm(*[q for _, (_, q) in ratios])
    if den == 1:
        return [(i, p) for i, (p, _) in ratios], 1
    return [(i, p * (den // q)) for i, (p, q) in ratios], den


_ZERO = Fraction(0)


class CyclotomicField(Domain):
    """Q(zeta_m); elements are coordinate tuples in the power basis mod Phi_m."""

    is_field = True

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = m
        self.name = f"Q(zeta_{m})"
        phi = cyclotomic_polynomial(m)
        self.degree = phi.deg()
        coeffs, _ = phi.coeff_list()
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


@lru_cache(maxsize=None)
def CYC(m: int) -> CyclotomicField:
    return CyclotomicField(m)
