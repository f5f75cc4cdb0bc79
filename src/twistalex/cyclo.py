"""Cyclotomic fields Q(zeta_m) with exact power-basis arithmetic.

An element is one pair (pairs, den): its nonzero integer coordinates in the
basis 1, x, ..., x^(deg-1) modulo the m-th cyclotomic polynomial, as
(index, numerator) pairs by increasing index, over one den > 0 in lowest
terms (Cohen 1993, 4.2).  Zero is ((), 1), so the form is unique and
equality and hashing are structural; zeta^k is one pair for k < phi(m), so
the values ±zeta^k of a metabelian representation and most entries built
from them have few pairs.  Only this module reads the layout; every other
module uses the field's methods.  Roots of unity never degrade to floats.

One reduction mod Phi_m (monic) serves the field: `_fold`, top-down and in
place, of an integer coefficient list of any length, and `from_powers` is
the way in from integer coordinates in the powers of zeta (the determinant
engine's exit reads it).  The table of Phi_m's sparse rows, x^(phi+j) in
the power basis, is built by it, one fold of x times the row before, and
so is the one table of zeta's powers, `powers` (zeta^0 ... zeta^(m-1), one
product by zeta each), which `zeta`, `inv` and the norm inverse read.
Products run on the pairs: two one-pair operands whose indices sum below
phi(m) (a rational, ±zeta^k with k < phi(m)) make one pair and one gcd, and
every other product or dot goes through `_integral_dot`, which convolves
into a sparse integer accumulator keyed by index over a common denominator,
reduces only its keys >= phi(m) with the sparse rows, and reads the pairs
off in lowest terms once (`_lowest`).  A rational times zeta^k inverts by
one lookup in a table of primitive forms built from `powers`
(`unit_inverse`, which the determinant's elimination reads to pick its
pivots), anything else by its norm: a^-1 is the product of its Galois
conjugates sigma_k(a), k != 1 a unit mod m, over the rational N(a)
(`_norm_inv`), each conjugate read off `powers`.  A field with
phi(m) > PHI_CAP is refused before Phi_m is computed.

`has_order` is the package's one multiplicative-order test, and the trial
division it factors with (`_prime_factors`) is read nowhere else.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from math import gcd, lcm

from .domains import Domain, TwistalexError
from .laurent import LaurentPoly
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


def has_order(a: int, e: int, n: int) -> bool:
    """True iff a has multiplicative order exactly e mod n: a^e = 1 and
    a^(e/q) != 1 for every prime q dividing e.  Only e is factored."""
    return pow(a, e, n) == 1 and all(pow(a, e // q, n) != 1 for q in _prime_factors(e))


# the largest n whose primes are found by trial division (at most 10^5 steps)
_TRIAL_CAP = 10**10


def is_cyclotomic_irreducible_mod_p(n: int, p: int) -> bool:
    """True iff Phi_n is irreducible over F_p, that is p has order phi(n) mod
    n (`has_order`).  p must be a prime (`metabelian.apn_irreducible` builds
    GF(p) first); one not coprime to n is refused, and so is an n above
    _TRIAL_CAP, before it is factored."""
    if n > _TRIAL_CAP:
        raise TwistalexError(f"n = {n} is above the cap _TRIAL_CAP = {_TRIAL_CAP} "
                             "for factoring n by trial division")
    if n == 1:
        return True
    if gcd(n, p) != 1:
        raise TwistalexError("n and p must be coprime")
    return has_order(p, _euler_phi(n), n)


def _lowest(pairs: tuple, den: int):
    """The element (pairs, den) in lowest terms, from its nonzero (index,
    numerator) pairs by increasing index over den > 0: zero is ((), 1), else
    one gcd with den."""
    if not pairs:
        return (), 1
    if den != 1:
        g = gcd(den, *[x for _, x in pairs])
        if g != 1:
            return tuple([(i, x // g) for i, x in pairs]), den // g
    return pairs, den


def _normal(nums, den: int):
    """The element (pairs, den) in lowest terms of the dense integer
    coordinates nums over den > 0."""
    return _lowest(tuple([(i, x) for i, x in enumerate(nums) if x]), den)


# the largest phi(m) = [Q(zeta_m) : Q] a field is built for
PHI_CAP = 1024


class CyclotomicField(Domain):
    """Q(zeta_m); elements are (pairs, den) in the power basis mod Phi_m."""

    is_field = True

    def __init__(self, m: int):
        # phi(m) >= sqrt(m / 2): a larger m is refused without factoring it,
        # and an m < 1 by cyclotomic_polynomial
        if m > 2 * PHI_CAP**2 or _euler_phi(m) > PHI_CAP:
            raise TwistalexError(f"Q(zeta_{m}) has degree phi({m}) above the cap PHI_CAP = {PHI_CAP}")
        self.m = m
        self.torsion_exponent = lcm(2, m)  # the roots of unity are ±zeta^k
        self.name = f"Q(zeta_{m})"
        coeffs = cyclotomic_polynomial(m).coeffs()
        self.degree = d = len(coeffs) - 1
        # Phi_m's nonzero terms below its leading x^phi, which `_fold` reads
        self._phi_terms = tuple((i, a) for i, a in enumerate(coeffs[:d]) if a)
        # reduction table: row j is x^(phi+j) in the power basis, x times row
        # j - 1 folded; Phi_m is monic, so the entries are integers, and each
        # row keeps its nonzero (i, c) pairs
        self._red: list[tuple[tuple[int, int], ...]] = []
        row = [0] * d + [1]
        for _ in range(d):
            self._fold(row)
            self._red.append(tuple((i, c) for i, c in enumerate(row) if c))
            row.insert(0, 0)

    # ------------------------------------------------------------- domain API
    def zero(self):
        return (), 1

    def one(self):
        return ((0, 1),), 1

    def coerce(self, x):
        """An element from a rational or a tuple of rational coordinates."""
        if isinstance(x, tuple) and len(x) == self.degree:
            den = lcm(*(v.denominator for v in x))
            return _normal([v.numerator * (den // v.denominator) for v in x], den)
        if isinstance(x, (int, Fraction)):
            return self.from_rational(x)
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def from_rational(self, q):
        num, den = q.as_integer_ratio()
        return (((0, num),), den) if num else ((), 1)

    def add(self, a, b):
        (an, ad), (bn, bd) = a, b
        acc = [0] * self.degree
        for i, x in an:
            acc[i] = x * bd
        for i, y in bn:
            acc[i] += y * ad
        return _normal(acc, ad * bd)

    def neg(self, a):
        return tuple([(i, -x) for i, x in a[0]]), a[1]

    def mul(self, a, b):
        """a * b: two one-pair operands whose indices sum below phi(m) (every
        rational, every ±zeta^k with k < phi(m)) make one pair and one gcd;
        any other product goes through `_integral_dot`."""
        (an, ad), (bn, bd) = a, b
        if len(an) == 1 and len(bn) == 1:
            (i, x), (j, y) = an[0], bn[0]
            k = i + j
            if k < self.degree:
                x *= y
                e = ad * bd
                g = gcd(x, e)
                return ((k, x // g),), e // g
        return self._integral_dot(((a, b),))

    def dot(self, xs, ys):
        """sum_k xs[k] * ys[k] on integer numerators (`_integral_dot`)."""
        return self._integral_dot(zip(xs, ys))

    def _integral_dot(self, products):
        """sum a * b over the products (a, b) of elements.

        Each product's pairs are convolved into one sparse integer
        accumulator, a dict keyed by index, over the running common
        denominator of all products.  Only the keys >= phi(m) are reduced,
        each through its sparse row of the table of Phi_m, and the nonzero
        pairs are read off sorted and brought to lowest terms once
        (`_lowest`).
        """
        acc: dict[int, int] = {}
        den = 1
        for (an, ad), (bn, bd) in products:
            if not an or not bn:
                continue
            e = ad * bd
            if den % e:
                grown = lcm(den, e)
                f = grown // den
                for k in acc:
                    acc[k] *= f
                den = grown
            s = den // e
            for i, x in an:
                x *= s
                for j, y in bn:
                    k = i + j
                    acc[k] = acc.get(k, 0) + x * y
        d = self.degree
        for k in [k for k in acc if k >= d]:
            c = acc.pop(k)
            if c:
                for i, r in self._red[k - d]:
                    acc[i] = acc.get(i, 0) + c * r
        return _lowest(tuple([p for p in sorted(acc.items()) if p[1]]), den)

    def is_zero(self, a):
        return not a[0]

    def eq(self, a, b):
        return a == b

    def inv(self, a):
        """a^-1: a rational times a power of zeta from the table of powers
        (`unit_inverse`), anything else by its norm (`_norm_inv`)."""
        if not a[0]:
            raise ZeroDivisionError(f"division by zero in {self.name}")
        unit = self.unit_inverse(a)
        return self._norm_inv(a) if unit is None else unit

    def unit_inverse(self, a):
        """a^-1 when a = r zeta^k, r a nonzero rational, else None; no norm
        is taken.  a is (g / den) w with w primitive (coprime numerators,
        the first positive), and zeta^k = c w in the table of powers
        (`_primitive_powers`), so a^-1 = (c den / g) zeta^-k."""
        pairs, den = a
        if len(pairs) == 1:  # (g / den) zeta^k with k < phi(m)
            ((k, g),), c = pairs, 1
        else:
            if not pairs:
                return None
            g = gcd(*[x for _, x in pairs])
            if pairs[0][1] < 0:
                g = -g
            hit = self._primitive_powers.get(tuple([(i, x // g) for i, x in pairs]))
            if hit is None:
                return None
            k, c = hit
        num = c * den if g > 0 else -c * den
        return _lowest(tuple([(i, x * num) for i, x in self.powers[-k][0]]), abs(g))

    @cached_property
    def _primitive_powers(self) -> dict:
        """w -> (k, c) with zeta^k = c w, w primitive as in `unit_inverse`:
        one entry per power in the table, the first k where two powers
        share w (zeta^k and -zeta^(k + m/2))."""
        out = {}
        for k, (pairs, _) in enumerate(self.powers):
            c = gcd(*[x for _, x in pairs])
            if pairs[0][1] < 0:
                c = -c
            out.setdefault(tuple([(i, x // c) for i, x in pairs]), (k, c))
        return out

    def _norm_inv(self, a):
        """a^-1 = prod_{k != 1} sigma_k(a) / N(a) over the units k mod m, with
        sigma_k: zeta -> zeta^k read off the powers of zeta; the norm
        N(a) = a * prod_{k != 1} sigma_k(a) is rational."""
        m, pows, (pairs, den) = self.m, self.powers, a
        rest = self.one()
        for k in range(2, m):
            if gcd(k, m) == 1:
                rest = self.mul(rest, self._integral_dot(
                    ((((0, x),), den), pows[i * k % m]) for i, x in pairs))
        norm = self.mul(a, rest)
        if not self.is_rational(norm):
            raise ArithmeticError(f"the norm of {self.to_str(a)} is not rational")
        return self.mul(rest, self.inv(norm))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # ---------------------------------------------------------- reduction
    def _fold(self, nums: list) -> None:
        """Reduce the integer coefficient list nums, of any length, mod Phi_m
        in place: from the top down each nums[top], top >= phi(m), is folded
        into the indices below it by Phi_m(zeta) = 0, and the list is cut to
        the phi(m) (or fewer) coordinates left."""
        d, terms = self.degree, self._phi_terms
        for top in range(len(nums) - 1, d - 1, -1):
            y = nums[top]
            if y:
                low = top - d
                for i, a in terms:
                    nums[low + i] -= y * a
        del nums[d:]

    def from_powers(self, nums: list, den: int):
        """The element sum_k nums[k] zeta^k / den of the integer list nums
        (folded in place) over den > 0."""
        self._fold(nums)
        return _normal(nums, den)

    @cached_property
    def powers(self) -> list:
        """zeta^0, ..., zeta^(m-1), each the last times zeta: the field's one
        table of zeta's powers."""
        z = self.from_powers([0, 1], 1)
        return list(accumulate(repeat(z, self.m - 1), self.mul, initial=self.one()))

    # ------------------------------------------------------------- utilities
    def zeta(self, k: int = 1):
        """zeta_m^k as an element, from the table of powers."""
        return self.powers[k % self.m]

    def _dense(self, a) -> list[int]:
        """The phi(m) integer numerators of a, zeros included."""
        nums = [0] * self.degree
        for i, x in a[0]:
            nums[i] = x
        return nums

    def coords(self, a) -> tuple[Fraction, ...]:
        """The power-basis coordinates of a, as Fractions."""
        den = a[1]
        return tuple(Fraction(x, den) for x in self._dense(a))

    def is_rational(self, a) -> bool:
        return not a[0] or a[0][-1][0] == 0

    def rational_value(self, a):
        """a as a QQ element: an int when integral, else a Fraction."""
        if not self.is_rational(a):
            raise ValueError(f"{self.to_str(a)} is not rational")
        return domains.QQ.div(a[0][0][1], a[1]) if a[0] else 0

    def embed(self, a, src: "CyclotomicField"):
        """Embed an element of Q(zeta_src) along zeta_src -> zeta_m^(m/src)."""
        if self.m % src.m:
            raise ValueError(f"no embedding {src.name} -> {self.name}")
        step, (pairs, den) = self.m // src.m, a
        # sum_k (x_k / den) zeta^(step k), as one integral dot
        return self._integral_dot(((((0, x),), den), self.zeta(step * k)) for k, x in pairs)

    def to_str(self, a) -> str:
        if self.is_rational(a):
            return str(self.rational_value(a))
        parts = []
        for k, x in a[0]:
            v = domains.QQ.div(x, a[1])
            if k == 0:
                parts.append(str(v))
            else:
                zp = f"z{self.m}" if k == 1 else f"z{self.m}^{k}"
                parts.append(zp if v == 1 else ("-" + zp if v == -1 else f"{v}*{zp}"))
        return "(" + " + ".join(parts).replace("+ -", "- ") + ")"

    def sort_key(self, a):
        """The coordinates; as ints when den = 1 (same order and hashes)."""
        return tuple(self._dense(a)) if a[1] == 1 else self.coords(a)


@lru_cache(maxsize=None)
def CYC(m: int) -> CyclotomicField:
    return CyclotomicField(m)
