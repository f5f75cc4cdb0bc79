"""Cyclotomic fields Q(zeta_m) with exact power-basis arithmetic.

An element is one pair (numerators, den): deg(Phi_m) integer coordinates in
the basis 1, x, ..., x^(deg-1) modulo the m-th cyclotomic polynomial, over
one den > 0 in lowest terms (Cohen 1993, 4.2), so equality and hashing are
structural.  Only this module and the determinant engine read the layout;
every other module uses the field's methods.  Roots of unity never degrade
to floats.  Products run on the numerators: `_integral_dot` convolves a sum
of products over one common denominator and reduces once with the integer
table of Phi_m (monic).  zeta^k is reduced mod Phi_m on demand.  A
rational inverts by one integer division, ±zeta^k by a table the first
non-rational `inv` builds, anything else by the polynomial kernel
(`laurent.poly_invmod`).  A field with phi(m) > PHI_CAP is refused
before Phi_m is computed.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .domains import Domain, TwistalexError
from .laurent import LaurentPoly, poly_divmod, poly_invmod, poly_trim
from . import domains


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def _euler_phi(n: int) -> int:
    for p in _prime_factors(n):
        n -= n // p
    return n


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> LaurentPoly:
    """The n-th cyclotomic polynomial as a monic integer polynomial.

    Computed by dividing t^n - 1 by all Phi_d with d | n, d < n.
    """
    if n < 1:
        raise TwistalexError("n must be >= 1")
    f = LaurentPoly.from_terms(domains.ZZ, {0: -1, n: 1})
    for d in range(1, n):
        if n % d == 0:
            f = f.exact_div(cyclotomic_polynomial(d))
    return f


def multiplicative_order(a: int, n: int) -> int:
    if n == 1:
        return 1
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    # the order divides phi(n): strip each prime q of phi(n) while a^(k/q) = 1
    k = _euler_phi(n)
    for q in _prime_factors(k):
        while k % q == 0 and pow(a, k // q, n) == 1:
            k //= q
    return k


# the largest n whose primes are found by trial division (at most 10^5 steps)
_TRIAL_CAP = 10**10


def is_cyclotomic_irreducible_mod_p(n: int, p: int) -> bool:
    """True iff Phi_n is irreducible over F_p; equivalent to ord_n(p) = phi(n),
    that is p^(phi(n)/q) != 1 (mod n) for every prime q | phi(n).  p must be
    a prime coprime to n (`metabelian.apn_irreducible` refuses any other).  An
    n above _TRIAL_CAP is refused before it is factored."""
    if n > _TRIAL_CAP:
        raise TwistalexError(f"n = {n} is above the cap _TRIAL_CAP = {_TRIAL_CAP} "
                             "for factoring n by trial division")
    if n == 1:
        return True
    return multiplicative_order(p, n) == _euler_phi(n)


def _normal(nums, den: int):
    """(numerators, den) in lowest terms, for integer numerators over den > 0."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return tuple(x // g for x in nums), den // g
    return tuple(nums), den


def _nonzero(a):
    """(nonzero (index, numerator) pairs, den) of an element: a product operand."""
    nums, den = a
    return [(i, x) for i, x in enumerate(nums) if x], den


# the largest phi(m) = [Q(zeta_m) : Q] a field is built for
PHI_CAP = 1024


class CyclotomicField(Domain):
    """Q(zeta_m); elements are (numerators, den) in the power basis mod Phi_m."""

    is_field = True

    def __init__(self, m: int):
        # phi(m) >= sqrt(m / 2): a larger m is refused without factoring it,
        # and an m < 1 by cyclotomic_polynomial
        if m > 2 * PHI_CAP**2 or _euler_phi(m) > PHI_CAP:
            raise TwistalexError(f"Q(zeta_{m}) has degree phi({m}) above the cap PHI_CAP = {PHI_CAP}")
        self.m = m
        self.name = f"Q(zeta_{m})"
        coeffs = cyclotomic_polynomial(m).coeffs()
        self._phi = coeffs
        self.degree = d = len(coeffs) - 1
        # reduction table: x^(deg+j) in the power basis.  Phi_m is monic, so
        # the entries are integers; each row keeps its nonzero (i, c) pairs.
        base = [-v for v in coeffs[:d]]
        cur = base
        self._red: list[tuple[tuple[int, int], ...]] = []
        for _ in range(d):
            self._red.append(tuple((i, c) for i, c in enumerate(cur) if c))
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [c + top * b for c, b in zip(cur, base)]
        self._unit_inv = None  # ±zeta^k -> ±zeta^-k, built by the first inv

    # ------------------------------------------------------------- domain API
    def zero(self):
        return (0,) * self.degree, 1

    def one(self):
        return (1,) + (0,) * (self.degree - 1), 1

    def coerce(self, x):
        """An element from a rational or a tuple of rational coordinates."""
        if isinstance(x, tuple) and len(x) == self.degree:
            xs = [Fraction(v) for v in x]
            den = lcm(*(v.denominator for v in xs))
            return _normal([v.numerator * (den // v.denominator) for v in xs], den)
        if isinstance(x, (int, Fraction)):
            return self.from_rational(x)
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def from_rational(self, q):
        num, den = q.as_integer_ratio()
        return (num,) + (0,) * (self.degree - 1), den

    def add(self, a, b):
        (an, ad), (bn, bd) = a, b
        if ad == bd:
            return _normal([x + y for x, y in zip(an, bn)], ad)
        return _normal([x * bd + y * ad for x, y in zip(an, bn)], ad * bd)

    def neg(self, a):
        return tuple(-x for x in a[0]), a[1]

    def mul(self, a, b):
        return self.dot((a,), (b,))

    def dot(self, xs, ys):
        """sum_k xs[k] * ys[k] on integer numerators (`_integral_dot`)."""
        return self._integral_dot(zip(map(_nonzero, xs), map(_nonzero, ys)))

    def mat_mul(self, a, b):
        """a b with the nonzero numerators of every entry of a and b listed
        once: 2 n^2 listings for an n x n product, not one per use."""
        rows = [[(k, f) for k, f in enumerate(map(_nonzero, row)) if f[0]] for row in a]
        cols = [tuple(map(_nonzero, col)) for col in zip(*b)]
        return tuple(tuple(self._integral_dot([(f, col[k]) for k, f in row]) for col in cols)
                     for row in rows)

    def _integral_dot(self, pairs):
        """sum a * b over the pairs (a, b) of `_nonzero` forms.

        The products are convolved into one integer accumulator over the
        running common denominator of all products, reduced once mod Phi_m,
        and brought to lowest terms once.
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
        return _normal(out, den)

    def is_zero(self, a):
        return not any(a[0])

    def eq(self, a, b):
        return a == b

    def inv(self, a):
        """a^-1: a rational by one integer division, a root of unity ±zeta^k
        from the table, anything else by the polynomial kernel, a^-1 mod
        Phi_m over QQ."""
        if self.is_rational(a):
            if not a[0][0]:
                raise ZeroDivisionError(f"division by zero in {self.name}")
            return self.from_rational(Fraction(a[1], a[0][0]))
        if self._unit_inv is None:  # ±zeta^k -> ±zeta^-k, at most 2m entries
            pows, z = [self.one()], self.zeta(1)
            for _ in range(self.m - 1):
                pows.append(self.mul(pows[-1], z))
            self._unit_inv = {w: pows[-k] for k, w in enumerate(pows)}
            self._unit_inv.update({self.neg(w): self.neg(v) for w, v in self._unit_inv.items()})
        unit = self._unit_inv.get(a)
        if unit is not None:
            return unit
        nums, den = a
        s = poly_invmod(domains.QQ, poly_trim(domains.QQ, list(nums)), self._phi)
        return self.scale(self.coerce(tuple(s + [0] * (self.degree - len(s)))), den)

    def scale(self, a, q):
        num, den = q.as_integer_ratio()
        return _normal([x * num for x in a[0]], a[1] * den)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # ------------------------------------------------------------- utilities
    def zeta(self, k: int = 1):
        """zeta_m^k as an element: x^(k mod m) reduced mod Phi_m."""
        _, r = poly_divmod(domains.ZZ, [0] * (k % self.m) + [1], self._phi)
        return tuple(r) + (0,) * (self.degree - len(r)), 1

    def coords(self, a) -> tuple[Fraction, ...]:
        """The power-basis coordinates of a, as Fractions."""
        nums, den = a
        return tuple(Fraction(x, den) for x in nums)

    def is_rational(self, a) -> bool:
        return not any(a[0][1:])

    def rational_value(self, a) -> Fraction:
        if not self.is_rational(a):
            raise ValueError(f"{self.to_str(a)} is not rational")
        return Fraction(a[0][0], a[1])

    def embed(self, a, src: "CyclotomicField"):
        """Embed an element of Q(zeta_src) along zeta_src -> zeta_m^(m/src)."""
        if self.m % src.m:
            raise ValueError(f"no embedding {src.name} -> {self.name}")
        step, (nums, den) = self.m // src.m, a
        # sum_k (nums[k] / den) zeta^(step k), as one integral dot
        return self._integral_dot(((([(0, v)], den), _nonzero(self.zeta(step * k)))
                                   for k, v in enumerate(nums) if v))

    def to_str(self, a) -> str:
        if self.is_rational(a):
            return str(self.rational_value(a))
        parts = []
        for k, v in enumerate(self.coords(a)):
            if not v:
                continue
            if k == 0:
                parts.append(str(v))
            else:
                zp = f"z{self.m}" if k == 1 else f"z{self.m}^{k}"
                parts.append(zp if v == 1 else ("-" + zp if v == -1 else f"{v}*{zp}"))
        return "(" + " + ".join(parts).replace("+ -", "- ") + ")"

    def sort_key(self, a):
        """The coordinates; as ints when den = 1 (same order and hashes)."""
        return a[0] if a[1] == 1 else self.coords(a)


@lru_cache(maxsize=None)
def CYC(m: int) -> CyclotomicField:
    return CyclotomicField(m)
